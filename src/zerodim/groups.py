"""Word-metric geometry on concrete finitely generated groups.

A group here is always given with a distinguished symmetric generating
set containing the identity.  The word length of g is the least number
of generators whose product is g, with the identity having length zero.
Everything downstream (balls, reach sets, cone approximations,
thickness and syndeticity probes) is computed exactly from that metric.

Supported variants: the integers, integer lattices, free groups,
finite groups given by multiplication table, and truncated direct sums
of cyclic groups.  Elements use plain hashable Python values so sets
and dict keys work without ceremony.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import (Callable, Collection, Iterable, Iterator, Mapping,
                    Optional, Sequence)

from .errors import DomainError, PreconditionError, RangeError, ResourceCapError
from .verdict import Verdict, fails, holds, inconclusive

DEFAULT_BALL_CAP = 1_000_000  # the group layer's one cap, read at call time


# ---------------------------------------------------------------------------
# group variants


class Group:
    """Common interface of all group variants.

    Concrete subclasses fix the element representation and provide
    multiplication, inversion, the generating set, and canonical
    formatting.  The generating set is symmetric and contains the
    identity; word-length conventions rely on both properties.
    """

    variant: str = "abstract"

    @property
    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self) -> tuple:
        """Symmetric generating set, identity included."""
        raise NotImplementedError

    def validate(self, g) -> None:
        """Raise RangeError / DomainError if g is not representable."""

    def sort_key(self, g):
        """Total order used for deterministic listings."""
        return repr(g)

    def format_element(self, g) -> str:
        return repr(g)

    def closed_form_length(self, g) -> Optional[int]:
        """Exact word length when the variant admits one, else None."""
        return None

    def cone_members(self, g, radius: int) -> Collection:
        """A collection equal, as a set, to the elements of
        ``ball(self, radius)`` in the cone layer of g: the entry
        ``cone_approx`` keeps per index and compares with ``==``.  g and
        the radius are checked by the caller.  On the integers it is a
        ``range``, elsewhere a frozenset.

        By default the radius ball is filtered by ``_cone_member``: one
        product and one length per ball element, and the cap rules of
        ``ball`` and ``_cone_member``.  The integers and the lattices
        give the set in closed form."""
        return frozenset(filter(_cone_member(self, g), ball(self, radius)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s>" % self.describe()

    def describe(self) -> str:
        return self.variant


class IntegerGroup(Group):
    """The integers with generating set {-1, 0, 1}."""

    variant = "integers"

    @property
    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return a + b

    def inverse(self, a: int) -> int:
        return -a

    def generators(self) -> tuple:
        return (-1, 0, 1)

    def validate(self, g) -> None:
        if type(g) is not int:
            raise RangeError("integer group element must be int, got %r" % (g,))

    def sort_key(self, g: int):
        return (abs(g), -g)

    def format_element(self, g: int) -> str:
        return str(g)

    def closed_form_length(self, g: int) -> int:
        return abs(g)

    def cone_members(self, g: int, radius: int) -> range:
        """The cone layer of g > 0 is the interval [1, 2g-1], so its
        part in the radius ball is [1, min(radius, 2g-1)], negated for
        g < 0: no product, no search, and no cap to meet.  Returned as
        a ``range``, which compares by its bounds."""
        if g == 0:
            raise PreconditionError("cone layer undefined at the identity")
        top = min(radius, 2 * abs(g) - 1)
        return range(1, top + 1) if g > 0 else range(-top, 0)


class LatticeGroup(Group):
    """Z^d with generators {0, +/- unit vectors}; word length is the L1 norm."""

    variant = "lattice"

    def __init__(self, dim: int):
        if dim < 1:
            raise DomainError("lattice dimension must be >= 1")
        self.dim = dim

    @property
    def identity(self) -> tuple:
        return (0,) * self.dim

    def multiply(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(operator.add, a, b))

    def inverse(self, a: tuple) -> tuple:
        return tuple(map(operator.neg, a))

    def generators(self) -> tuple:
        gens = [self.identity]
        for i in range(self.dim):
            for s in (1, -1):
                v = [0] * self.dim
                v[i] = s
                gens.append(tuple(v))
        return tuple(gens)

    def validate(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == self.dim
                and all(type(x) is int for x in g)):
            raise RangeError("lattice element must be an int %d-tuple" % self.dim)

    def sort_key(self, g: tuple):
        return (sum(map(abs, g)), tuple(map(operator.neg, g)))

    def format_element(self, g: tuple) -> str:
        return "(" + ",".join(str(x) for x in g) + ")"

    def closed_form_length(self, g: tuple) -> int:
        return sum(map(abs, g))

    def cone_members(self, g: tuple, radius: int) -> frozenset:
        """The lens {c : |c|_1 <= radius, |c - g|_1 <= |g|_1 - 1}, which
        never holds the identity, walked one coordinate at a time.  With
        budgets a and b left of the two norms by the coordinates before
        it, coordinate i ranges over [-a, a] and [g_i - b, g_i + b].
        Costs one entry per partial lens point: no product, no search,
        and no cap to meet."""
        reach = self.closed_form_length(g) - 1
        if reach < 0:
            raise PreconditionError("cone layer undefined at the identity")
        lens = [((), radius, reach)]
        for gi in g:
            lens = [(c + (x,), a - abs(x), b - abs(x - gi))
                    for c, a, b in lens
                    for x in range(max(-a, gi - b), min(a, gi + b) + 1)]
        return frozenset(c for c, _, _ in lens)

    def describe(self) -> str:
        return "lattice(%d)" % self.dim


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class FreeGroupVariant(Group):
    """Free group of finite rank; elements are reduced words.

    A word is a tuple of nonzero ints: +k is the k-th letter, -k its
    inverse.  Reduction (no adjacent cancelling pair) is maintained by
    multiply, so structural equality is group equality.
    """

    variant = "free"

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise DomainError("free group rank must be in 1..26")
        self.rank = rank

    @property
    def identity(self) -> tuple:
        return ()

    def multiply(self, a: tuple, b: tuple) -> tuple:
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inverse(self, a: tuple) -> tuple:
        return tuple(-x for x in reversed(a))

    def generators(self) -> tuple:
        gens = [()]
        for k in range(1, self.rank + 1):
            gens.append((k,))
            gens.append((-k,))
        return tuple(gens)

    def validate(self, g) -> None:
        if not isinstance(g, tuple):
            raise RangeError("free group element must be a tuple of nonzero ints")
        for x in g:
            if type(x) is not int or x == 0 or abs(x) > self.rank:
                raise RangeError("letter %r outside rank %d" % (x, self.rank))
        for u, v in zip(g, g[1:]):
            if u == -v:
                raise RangeError("word %r is not reduced" % (g,))

    def sort_key(self, g: tuple):
        # shortlex on letter codes 2|x| + (x < 0): the order of the pairs
        # (|x|, x < 0), held as one flat tuple of ints per word
        return (len(g), *[2 * x if x > 0 else 1 - 2 * x for x in g])

    def format_element(self, g: tuple) -> str:
        if not g:
            return "e"
        out = []
        for x in g:
            letter = _LETTERS[abs(x) - 1]
            out.append(letter if x > 0 else letter + "^-1")
        return "".join(out)

    def closed_form_length(self, g: tuple) -> int:
        return len(g)

    def describe(self) -> str:
        return "free(%d)" % self.rank


class FiniteGroup(Group):
    """A finite group given by element names and a multiplication table.

    Every element is a generator, which makes the word metric the
    discrete metric (length 1 off the identity).
    """

    variant = "finite"

    def __init__(self, names: Sequence[str],
                 table: Mapping[tuple, str],
                 identity: str,
                 label: str = "finite"):
        self.names = tuple(names)
        self.label = label
        if len(set(self.names)) != len(self.names):
            raise DomainError("duplicate element names")
        self._table = dict(table)
        self._identity = identity
        self._inverse = {}
        for a in self.names:
            for b in self.names:
                product = self._table.get((a, b))
                if product is None:
                    raise DomainError("multiplication table has no entry "
                                      "for %r" % ((a, b),))
                if product == identity:
                    self._inverse[a] = b
        if set(self._inverse) != set(self.names):
            raise DomainError("multiplication table has no inverse for some element")
        self._generators = tuple(sorted(self.names, key=self.sort_key))

    @property
    def identity(self) -> str:
        return self._identity

    def multiply(self, a: str, b: str) -> str:
        return self._table[(a, b)]

    def inverse(self, a: str) -> str:
        return self._inverse[a]

    def generators(self) -> tuple:
        return self._generators

    def elements(self) -> tuple:
        return self.names

    def order(self) -> int:
        return len(self.names)

    def validate(self, g) -> None:
        if g not in self.names:
            raise RangeError("unknown element %r" % (g,))

    def sort_key(self, g: str):
        return (g != self._identity, g)

    def format_element(self, g: str) -> str:
        return g

    def describe(self) -> str:
        return self.label


class CyclicSumGroup(Group):
    """Truncated direct sum of cyclic groups.

    Coordinates are indexed by a fixed finite support (e.g. -m..m); the
    coordinate at index i has modulus ``moduli[i]``.  Elements are
    residue tuples aligned with the support.  Generators are the zero
    vector and the +/-1 unit residues, so the word length of a vector is
    the sum of cyclic distances of its coordinates.
    """

    variant = "cyclic-sum"

    def __init__(self, support: Sequence[int], modulus: int | Sequence[int]):
        self.support = tuple(support)
        if len(set(self.support)) != len(self.support) or not self.support:
            raise DomainError("support must be a nonempty list of distinct indices")
        if isinstance(modulus, int):
            mods = (modulus,) * len(self.support)
        else:
            mods = tuple(modulus)
        if len(mods) != len(self.support) or any(m < 2 for m in mods):
            raise DomainError("need one modulus >= 2 per support index")
        self.moduli = mods

    @classmethod
    def symmetric(cls, radius: int, modulus: int) -> "CyclicSumGroup":
        return cls(tuple(range(-radius, radius + 1)), modulus)

    @property
    def identity(self) -> tuple:
        return (0,) * len(self.support)

    def multiply(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inverse(self, a: tuple) -> tuple:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def generators(self) -> tuple:
        gens = [self.identity]
        for i, m in enumerate(self.moduli):
            for s in (1, m - 1):
                v = [0] * len(self.support)
                v[i] = s % m
                gens.append(tuple(v))
        # modulus 2 makes +1 and -1 coincide
        seen, out = set(), []
        for g in gens:
            if g not in seen:
                seen.add(g)
                out.append(g)
        return tuple(out)

    def validate(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == len(self.support)):
            raise RangeError(
                "element must be a residue %d-tuple over support %r"
                % (len(self.support), self.support))
        for x, m in zip(g, self.moduli):
            if type(x) is not int or not 0 <= x < m:
                raise RangeError("residue %r out of range for modulus %d" % (x, m))

    def sort_key(self, g: tuple):
        return (self.closed_form_length(g), g)

    def format_element(self, g: tuple) -> str:
        return "[" + ",".join(str(x) for x in g) + "]"

    def closed_form_length(self, g: tuple) -> int:
        return sum(min(x, m - x) for x, m in zip(g, self.moduli))

    def describe(self) -> str:
        return "cyclic-sum(%d coords)" % len(self.support)


# ---------------------------------------------------------------------------
# word metric and balls


class _CayleySearch:
    """Breadth-first layers of one group instance's Cayley graph, grown
    one whole layer at a time as callers ask for more.

    ``layers[k]`` holds the elements of word length k sorted by the
    group's ``sort_key``, ``sizes[k]`` is the size of the closed ball of
    radius k, and ``length`` maps every element found to its word
    length.  A layer is kept only once it is complete and its closed
    ball fits under ``DEFAULT_BALL_CAP``, so every layer held fits.
    ``views`` holds the ``ElementSet`` that ``ball``, ``sphere`` and
    ``power_set`` hand out, keyed by ``(kind, radius)``, and next to a
    ball or power set its ``sort_key``-ordered tuple, keyed by ``(kind,
    radius, "sorted")``; each is built on first request.  The search
    keeps no reference to its group: callers pass it in, and
    ``group.multiply`` is looked up afresh for every layer.  Growth is
    not locked, so one instance must not be searched from two threads
    at once.
    """

    def __init__(self, group: Group):
        e = group.identity
        self.gens = tuple(x for x in group.generators() if x != e)
        self.layers = [(e,)]
        self.sizes = [1]
        self.length = {e: 0}
        self.exhausted = False
        self.views = {}

    def _grow(self, group: Group) -> bool:
        """Add the next layer, or mark the group exhausted when it is
        empty.  False, with nothing kept, when the closed ball through
        the new layer would have more than ``DEFAULT_BALL_CAP``
        elements."""
        multiply, length, gens = group.multiply, self.length, self.gens
        room = DEFAULT_BALL_CAP - self.sizes[-1]
        new = set()
        for a in self.layers[-1]:
            for s in gens:
                b = multiply(a, s)
                if b not in length and b not in new:
                    new.add(b)
                    if len(new) > room:
                        return False
        if not new:
            self.exhausted = True
            return True
        radius = len(self.layers)
        self.layers.append(tuple(sorted(new, key=group.sort_key)))
        self.sizes.append(self.sizes[-1] + len(new))
        length.update(dict.fromkeys(new, radius))
        return True

    def reach(self, group: Group, radius: int) -> Optional[int]:
        """Grow through layer ``radius`` and return the top layer held,
        less than ``radius`` once the group is exhausted; None when the
        closed ball of that radius exceeds the cap."""
        while len(self.layers) <= radius and not self.exhausted:
            if not self._grow(group):
                return None
        return min(radius, len(self.layers) - 1)

    def word_length(self, group: Group, g) -> Optional[int]:
        """|g|; None when the closed ball of radius |g| exceeds the cap."""
        while g not in self.length:
            if self.exhausted:
                raise RangeError("element %s not generated"
                                 % group.format_element(g))
            if not self._grow(group):
                return None
        return self.length[g]


def _search(group: Group) -> _CayleySearch:
    """The instance's own Cayley search, created on first use.  It lives
    in the instance's ``__dict__`` and goes away with the instance."""
    search = group.__dict__.get("_cayley_search")
    if search is None:
        search = group.__dict__["_cayley_search"] = _CayleySearch(group)
    return search


def _unsearched_copy(group: Group) -> Group:
    """A new instance of the group's class sharing its attributes but
    not its Cayley search: the copy searches from scratch."""
    twin = object.__new__(type(group))
    twin.__dict__.update(group.__dict__)
    twin.__dict__.pop("_cayley_search", None)
    return twin


def word_length(group: Group, g, method: str = "auto") -> int:
    """Least r with g a product of r generators (0 for the identity).

    ``method="auto"`` uses the variant's exact closed form when there is
    one and otherwise searches the Cayley graph breadth first;
    ``method="bfs"`` forces the search and is the reference oracle the
    closed forms are tested against.

    The search is the one the instance shares with ``ball``, ``sphere``
    and the cone helpers: it grows whole layers and keeps them for as
    long as the instance lives (drop the instance to free it).  It
    raises ResourceCapError iff the closed ball of radius |g| has more
    than ``DEFAULT_BALL_CAP`` elements.
    """
    group.validate(g)
    if method not in ("auto", "bfs"):
        raise DomainError("unknown word_length method %r" % method)
    if method == "auto":
        closed = group.closed_form_length(g)
        if closed is not None:
            return closed
    n = _search(group).word_length(group, g)
    if n is None:
        raise ResourceCapError(
            "Cayley search exceeded cap %d before reaching %s"
            % (DEFAULT_BALL_CAP, group.format_element(g)))
    return n


@dataclass(frozen=True)
class ElementSet:
    """A finite set of group elements."""

    elements: frozenset

    def __contains__(self, g) -> bool:
        return g in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def sorted(self, group: Group) -> list:
        return sorted(self.elements, key=group.sort_key)


def _check_int(value, what: str, least: Optional[int] = 0) -> None:
    """Radii, horizons and depths are exact ints of at least ``least``
    (of any size when ``least`` is None): views are keyed by radius,
    True would run as 1 and alias it, and a float would reach a range
    or a certificate."""
    if type(value) is not int:
        raise PreconditionError("%s must be an int, got %r" % (what, value))
    if least is not None and value < least:
        raise PreconditionError("%s must be >= %d" % (what, least))


def _view(group: Group, kind: str, radius: int,
          members: Iterable) -> ElementSet:
    """The instance's ``(kind, radius)`` view, built from ``members``
    the first time and shared by every later call."""
    views = _search(group).views
    view = views.get((kind, radius))
    if view is None:
        view = views[kind, radius] = ElementSet(frozenset(members))
    return view


def ball(group: Group, radius: int) -> ElementSet:
    """Non-identity elements of word length <= radius, read from the
    instance's shared Cayley search (see ``word_length``).  Raises
    ResourceCapError iff the closed ball has more than
    ``DEFAULT_BALL_CAP`` elements.  The set is built once per instance
    and radius and held as long as the instance, so repeated calls
    return the same object."""
    _check_int(radius, "ball radius")
    layers = _ball_layers(group, radius)
    return _view(group, "ball", radius,
                 itertools.chain.from_iterable(layers[1:]))


def sphere(group: Group, radius: int) -> ElementSet:
    """Elements of word length exactly radius, read from the instance's
    shared Cayley search; same cap rule, and built and held once per
    instance and radius, as ``ball``."""
    _check_int(radius, "sphere radius")
    return _view(group, "sphere", radius, _layer(group, radius))


def _ball_layers(group: Group, radius: int) -> list:
    """Layers 0..radius of the instance's Cayley search, each a tuple in
    ``sort_key`` order; shorter once the group is exhausted."""
    search = _search(group)
    top = search.reach(group, radius)
    if top is None:
        raise ResourceCapError("ball enumeration exceeded cap %d"
                               % DEFAULT_BALL_CAP)
    return search.layers[:top + 1]


def _layer(group: Group, radius: int) -> tuple:
    """Layer ``radius`` of the instance's Cayley search in ``sort_key``
    order, empty past exhaustion; same cap rule as ``ball``."""
    layers = _ball_layers(group, radius)
    return layers[radius] if radius < len(layers) else ()


def power_set(group: Group, radius: int) -> ElementSet:
    """All products of at most ``radius`` generators: the ball plus the
    identity.  (The generating set contains the identity, so this equals
    the set of products of exactly ``radius`` generators.)  Same cap
    rule, and built and held once per instance and radius, as
    ``ball``."""
    _check_int(radius, "ball radius")
    layers = _ball_layers(group, radius)
    return _view(group, "power", radius,
                 itertools.chain.from_iterable(layers))


def _sorted_view(group: Group, kind: str, radius: int) -> tuple:
    """The ``ball`` (kind ``"ball"``) or ``power_set`` (``"power"``) view
    as a tuple in ``sort_key`` order, sorted once per instance and
    radius and held next to the set.  The view itself is asked for
    first, so the radius and cap checks run on every call."""
    view = (ball if kind == "ball" else power_set)(group, radius)
    views = _search(group).views
    ordered = views.get((kind, radius, "sorted"))
    if ordered is None:
        ordered = views[kind, radius, "sorted"] = tuple(
            sorted(view.elements, key=group.sort_key))
    return ordered


# ---------------------------------------------------------------------------
# reach sets and cone approximations


def cone_layer(group: Group, g) -> ElementSet:
    """Left translates of g by all products of |g|-1 generators.

    This is the closed ball of radius |g|-1 around g (right-invariant
    metric); it contains g, never contains the identity, and every
    member has word length at most 2|g|-1.  Undefined at the identity.

    The reference materialisation of the cone layer: nothing on the
    analyzers' or cone helpers' paths builds the shell.  They ask for
    membership through ``_cone_member``, or for the part in a ball
    through ``Group.cone_members``, and the cone-subnet analyzer reads
    the integer cones as intervals.  |g| and the shell come
    from the instance's shared Cayley search (see ``word_length``);
    raises ResourceCapError iff the closed ball of radius |g| has more
    than ``DEFAULT_BALL_CAP`` elements when |g| needs the search, else
    iff the shell of radius |g|-1 does.
    """
    n = word_length(group, g)
    if n == 0:
        raise PreconditionError("cone layer undefined at the identity")
    shell = power_set(group, n - 1)
    return ElementSet(frozenset(group.multiply(k, g) for k in shell))


def _cone_member(group: Group, g) -> Callable:
    """Membership test of ``cone_layer(group, g)`` that builds no
    shell: c = k*g with |k| <= |g|-1 iff |c*g^-1| <= |g|-1.

    That length comes from the variant's closed form, or else from the
    instance's shared Cayley search, which finding |g| grew through
    radius |g|; an element the search has not met is longer.  Costs
    one product and one length per test.  ``layer_embedding_check`` and
    the default ``Group.cone_members`` ask it; the integers and the
    lattices list their ``cone_members`` in closed form instead.
    Raises PreconditionError at the identity, and ResourceCapError iff
    |g| needs the search and the closed ball of radius |g| has more
    than ``DEFAULT_BALL_CAP`` elements.
    """
    n = word_length(group, g)
    if n == 0:
        raise PreconditionError("cone layer undefined at the identity")
    multiply, g_inv = group.multiply, group.inverse(g)
    closed = group.closed_form_length
    if closed(g) is not None:
        return lambda c: closed(multiply(c, g_inv)) < n
    lengths = _search(group).length
    return lambda c: lengths.get(multiply(c, g_inv), n) < n


@dataclass(frozen=True)
class SequenceDescriptor:
    """Closed-form description of an element sequence g_1, g_2, ...

    kinds:
      ``affine``  g_n = n * step + offset   (componentwise for lattices)
      ``list``    explicit finite list
    """

    kind: str
    step: object = None
    offset: object = None
    elements: tuple = ()

    def element(self, group: Group, n: int):
        if self.kind == "affine":
            step, offset = self.step, self.offset
            if isinstance(step, int):
                return step * n + (offset or 0)
            off = offset if offset is not None else group.identity
            return tuple(s * n + o for s, o in zip(step, off))
        if self.kind == "list":
            if n > len(self.elements):
                raise RangeError("descriptor list has only %d entries"
                                 % len(self.elements))
            return self.elements[n - 1]
        raise DomainError("unknown descriptor kind %r" % self.kind)

    def max_index(self, default: int) -> int:
        if self.kind == "list":
            return len(self.elements)
        return default


def _affine_shape(v) -> Optional[int]:
    """None for an int, the length for a tuple of ints; anything else,
    bools and integral floats included, raises PreconditionError."""
    if type(v) is int:
        return None
    if type(v) is tuple and all(type(x) is int for x in v):
        return len(v)
    raise PreconditionError("affine step and offset must be an int or a "
                            "tuple of ints, got %r" % (v,))


def affine_sequence(step, offset=None) -> SequenceDescriptor:
    """g_n = n * step + offset: an int step on the integers, a tuple of
    ints on a lattice, and an offset of the same shape (default: the
    identity)."""
    shape = _affine_shape(step)
    if offset is not None and _affine_shape(offset) != shape:
        raise PreconditionError("affine offset %r does not match step %r"
                                % (offset, step))
    return SequenceDescriptor(kind="affine", step=step, offset=offset)


def explicit_sequence(elements: Iterable) -> SequenceDescriptor:
    return SequenceDescriptor(kind="list", elements=tuple(elements))


STABLE_RUN = 3  # consecutive equal intersections required to declare stability


@dataclass(frozen=True)
class ConeApproximation:
    """Ball-intersection limit of the reach sets of a sequence.

    ``elements`` is the final intersection of the radius-``radius`` ball
    with the reach set of g_n; ``stabilized`` records whether that
    intersection was constant over the last ``STABLE_RUN`` (or more)
    examined indices, and ``stabilization_index`` is the first sequence
    position from which it never changed again.
    """

    radius: int
    elements: frozenset
    stabilized: bool
    stabilization_index: Optional[int]
    examined: int
    tail_run: int

    def __contains__(self, g) -> bool:
        return g in self.elements


def cone_approx(group: Group, seq: SequenceDescriptor, radius: int,
                max_index: int = 40) -> ConeApproximation:
    """Approximate the directional limit set of ``seq`` at ``radius``.

    Word lengths along the sequence must increase strictly (checked).
    Stability means the ball intersection stopped changing and stayed
    constant for at least STABLE_RUN consecutive indices at the end of
    the examined range.

    Entry n is the part of the radius ball in the cone layer of g_n,
    ``group.cone_members(g_n, radius)``, and no shell is built.
    On the integers it is an interval, held as a ``range`` and compared
    with the next entry by its bounds; on a lattice it is an L1 lens,
    listed directly; any other variant filters the radius ball with one
    ``_cone_member`` test per element and index.  Only the last entry
    becomes a set, the frozenset ``elements``.  Raises
    ResourceCapError iff the radius ball, or the closed ball of radius
    |g_n| of some g_n that needs the search, has more than
    ``DEFAULT_BALL_CAP`` elements; a closed-form variant never
    enumerates the radius |g_n|-1 shell, so its size is no limit.
    Nothing is truncated.
    ``max_index`` must be an exact int.
    """
    if type(max_index) is not int:
        raise PreconditionError("max_index must be an int, got %r"
                                % (max_index,))
    max_index = seq.max_index(max_index)
    if max_index < 1:
        raise PreconditionError("sequence yields no elements")
    ball(group, radius)  # the radius and cap checks
    members = group.cone_members
    history = []
    prev_len = -1
    for n in range(1, max_index + 1):
        g = seq.element(group, n)
        glen = word_length(group, g)  # validates g first
        if glen <= prev_len:
            raise PreconditionError(
                "sequence word lengths must increase strictly "
                "(|g_%d| = %d after %d)" % (n, glen, prev_len))
        prev_len = glen
        if glen == 0:
            raise PreconditionError("sequence passes through the identity")
        history.append(members(g, radius))
    # longest constant run at the end of the history
    tail = 1
    while tail < len(history) and history[-tail - 1] == history[-1]:
        tail += 1
    stabilized = tail >= STABLE_RUN
    stab_index = len(history) - tail + 1 if stabilized else None
    return ConeApproximation(radius=radius, elements=frozenset(history[-1]),
                             stabilized=stabilized,
                             stabilization_index=stab_index,
                             examined=max_index, tail_run=tail)


# ---------------------------------------------------------------------------
# thickness / syndeticity at a finite window


SetLike = ElementSet | ConeApproximation | Callable


def _membership(group: Group, subset: SetLike) -> Callable:
    if isinstance(subset, (ElementSet, ConeApproximation)):
        return lambda g: g in subset
    if callable(subset):
        return subset
    raise DomainError("subset must be an ElementSet, cone approximation, "
                      "or predicate")


def is_thick_window(group: Group, subset: SetLike, probe_radius: int,
                    window: int) -> Verdict:
    """Can the full probe ball be translated into the subset?

    Placing the ball of radius ``probe_radius`` covers every smaller
    finite probe, so a single witness t with ball*t inside the subset
    certifies thickness at this probe scale.  Candidates t are subset
    members in the window ball.  If every candidate is refuted the probe
    is reported unplaceable at this window; an empty candidate list is
    inconclusive.  Candidates are read in ``sort_key`` order from the
    window ball's sorted view, sorted once per instance and radius.
    """
    if probe_radius < 0 or window < probe_radius:
        raise PreconditionError("need 0 <= probe_radius <= window")
    member = _membership(group, subset)
    probe = power_set(group, probe_radius)
    candidates = [t for t in _sorted_view(group, "ball", window)
                  if member(t)]
    params = {"probe_radius": probe_radius, "window": window}
    for t in candidates:
        if all(member(group.multiply(k, t)) for k in probe):
            return holds("thick-window", params,
                         {"witness": group.format_element(t),
                          "probe_size": len(probe)})
    if not candidates:
        return inconclusive("thick-window", params,
                            {"reason": "no subset members in window"})
    return fails("thick-window", params,
                 {"unplaceable_probe_radius": probe_radius,
                  "candidates_checked": len(candidates)})


def is_syndetic_window(group: Group, subset: SetLike, k_radius: int,
                       window: int) -> Verdict:
    """Does the k-ball of translates of the subset cover the window?

    Checks that every g with |g| <= window - k_radius satisfies
    k*g in subset for some |k| <= k_radius.  For the integers the
    certificate also reports the largest gap between consecutive subset
    members in the window.  Targets are read in ``sort_key`` order from
    the sorted view of their power set, sorted once per instance and
    radius, so the first uncovered one is reported.
    """
    if k_radius < 0 or window <= k_radius:
        raise PreconditionError("need 0 <= k_radius < window")
    member = _membership(group, subset)
    cover = power_set(group, k_radius)
    targets = _sorted_view(group, "power", window - k_radius)
    params = {"k_radius": k_radius, "window": window}
    for g in targets:
        if not any(member(group.multiply(k, g)) for k in cover):
            return fails("syndetic-window", params,
                         {"uncovered": group.format_element(g)})
    cert: dict = {"covered": len(targets)}
    if isinstance(group, IntegerGroup):
        members = [n for n in range(-window, window + 1) if member(n)]
        if len(members) >= 2:
            cert["max_gap"] = max(b - a for a, b in zip(members, members[1:]))
    return holds("syndetic-window", params, cert)


# ---------------------------------------------------------------------------
# uniform embedding of finite sets into reach sets


def layer_embedding_check(group: Group, finite_set: Iterable, length: int,
                          g) -> Optional[object]:
    """A translate t of word length exactly ``length`` with
    finite_set * t inside the reach set of g, or None.

    Costs at most |finite_set| cone membership tests (``_cone_member``)
    per element of the length sphere, and builds no shell.  Raises
    ResourceCapError iff the sphere's closed ball, or the closed ball
    of radius |g| when |g| needs the search, has more than
    ``DEFAULT_BALL_CAP`` elements; a closed-form variant's radius |g|-1
    shell is never enumerated, so its size is no limit.  Nothing is
    truncated.  Raises RangeError when a member of ``finite_set`` is
    not an element of the group."""
    member = _cone_member(group, g)
    _check_int(length, "sphere radius")
    return _first_translate(group, _elements(group, finite_set), length,
                            member)


def _elements(group: Group, finite_set: Iterable) -> list:
    """The members of ``finite_set`` as a list, each checked by
    ``group.validate``."""
    fs = list(finite_set)
    for f in fs:
        group.validate(f)
    return fs


def _first_translate(group: Group, fs: Sequence, length: int,
                     member: Callable) -> Optional[object]:
    """``layer_embedding_check`` on checked arguments: the first t of
    the length sphere, in ``sort_key`` order, with every f * t passing
    the cone membership test ``member``."""
    for t in _layer(group, length):
        if all(member(group.multiply(f, t)) for f in fs):
            return t
    return None


def layer_embedding_bound(group: Group, finite_set: Iterable, g_bound: int,
                          n_max: int = 8) -> Verdict:
    """Smallest n <= n_max such that every g with n <= |g| <= g_bound
    admits a sphere-n translate carrying finite_set into g's reach set.

    The elements g examined are the g_bound ball, read in ``sort_key``
    order from its sorted view, sorted once per instance and radius.
    The certificate records the bound and one witness per examined g.
    ``g_bound`` must be an exact int >= 0 and ``n_max`` one >= 1, and
    every member of ``finite_set`` an element of the group (else
    RangeError).
    """
    _check_int(g_bound, "g_bound")
    _check_int(n_max, "n_max", 1)
    fs = sorted(set(_elements(group, finite_set)), key=group.sort_key)
    pool = _sorted_view(group, "ball", g_bound)
    params = {"g_bound": g_bound, "n_max": n_max,
              "set_size": len(fs)}
    for n in range(1, n_max + 1):
        witnesses = {}
        ok = True
        for g in pool:
            if word_length(group, g) < n:
                continue
            t = _first_translate(group, fs, n, _cone_member(group, g))
            if t is None:
                ok = False
                break
            witnesses[group.format_element(g)] = group.format_element(t)
        if ok and witnesses:
            return holds("layer-embedding-bound", params,
                         {"bound": n, "examined": len(witnesses)})
    return fails("layer-embedding-bound", params,
                 {"no_bound_up_to": n_max})
