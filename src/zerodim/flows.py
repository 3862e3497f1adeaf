"""Catalog of concrete computable group actions.

Every system packages a phase space, an acting group, an exact action
on finitely described points, and an input-depth table saying how much
of a point must be known to pin its image to a given depth.  The
catalog covers shifts, a substitution subshift, odometers, an
integer-indexed successor space, two sign-extension actions of word
groups, a stack of rotated circles, and its component quotient.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .cantor import (
    ClopenSet,
    Point,
    Scheme,
    _admitted_codes,
    _admitted_count,
    _trusted_point,
    canonical_point,
    clopen,
    distance as cantor_distance,
    make_point,
    periodic_tail,
    read_symbols,
    reanchor_tail,
    sym_diff,
)
from .errors import (DomainError, PreconditionError, RangeError,
                     ResourceCapError)
from . import groups
from .groups import Group, IntegerGroup, _check_int

KINDS = ("cylinder-z", "cylinder-word", "tower", "quotient")
LANGUAGE_CAP = 1 << 16   # most words one ``language`` call may enumerate


# ---------------------------------------------------------------------------
# the system container


class FlowSystem:
    """One phase space with one acting group.

    ``kind`` names the phase space: "cylinder-z" (integer action on a
    symbol space), "cylinder-word" (word-group action on a symbol space
    with extra structure), "tower" (metric stack of circles),
    "quotient" (collapsed components of a tower).  The group variant,
    not ``kind``, decides which integer analyzers apply: they reach
    ``returns`` or ``require_integer_action``, which reject any other
    group.  ``kind`` gates only the cell analyzers, which need
    "cylinder-z", and the cellwise path of ``usc_verdict``.
    """

    def __init__(self, system_id: str, kind: str, group: Group,
                 scheme: Optional[Scheme], act_fn: Callable,
                 input_depth_fn: Callable, points: Mapping[str, object], *,
                 dist_fn: Optional[Callable] = None,
                 language_fn: Optional[Callable] = None,
                 reps_fn: Optional[Callable] = None,
                 returns_fn: Optional[Callable] = None,
                 families: Optional[Mapping[str, Callable]] = None,
                 format_point_fn: Optional[Callable] = None,
                 summary: str = ""):
        if kind not in KINDS:
            raise DomainError("unknown system kind %r" % kind)
        self.system_id = system_id
        self.kind = kind
        self.group = group
        self.scheme = scheme
        self._act = act_fn
        self._input_depth = input_depth_fn
        self._points = dict(points)
        self._dist = dist_fn
        self._language = language_fn
        self._reps = reps_fn
        self._returns = returns_fn
        self._families = dict(families or {})
        self._format_point = format_point_fn
        self.summary = summary
        self._language_cache: dict = {}

    # -- core operations

    def act(self, g, x):
        """The image gx.  Every system's action is a left action in the
        group's own product: ``act(multiply(s, a), x) == act(s, act(a,
        x))``, so ``orbit_layers`` may reach gx one generator at a
        time."""
        self.group.validate(g)
        return self._act(g, x)

    def orbit_layers(self, points: tuple, radius: int):
        """Yield ``(r, images, g)`` for each tuple ``images = (gp for p
        in points)`` met within word length ``radius``, layer by layer:
        r is the least word length that reaches the tuple and g the
        element of length r that first did.  The search stops once a
        layer comes up empty: the orbit of the tuple has closed, and no
        longer word meets a new image.  A caller may stop it early.

        Exact, because {gx : |g| <= r+1} = U_s s{gx : |g| <= r} and
        gx = act(s, ax) for g = s*a.  Layer r+1 tries every generator
        move s*a from layer r, skips a product already met (its image
        is known), acts once otherwise, and drops an image already
        seen.  So the search makes at most |gens|*|orbit| products and
        min(|ball|, |gens|*|orbit|) moves of ``len(points)`` acts, and
        builds no ball of the group.  The moves are the non-identity
        generators that the group's Cayley search holds, so their acts
        skip ``validate``; they are tried in ``sort_key`` order, so each
        layer of a free action of Z comes out in ``sort_key`` order.  The elements met lie in
        the radius ball and outnumber the images held: ResourceCapError
        when they exceed ``groups.DEFAULT_BALL_CAP``, never a truncated
        layer."""
        _check_int(radius, "orbit radius")
        group, act = self.group, self._act
        gens = groups._search(group).gens
        cap = groups.DEFAULT_BALL_CAP
        multiply, e = group.multiply, group.identity
        points = tuple(points)
        yield 0, points, e
        met, seen = {e}, {points}
        layer = [(points, e)]
        for r in range(1, radius + 1):
            grown = []
            for image, a in layer:
                for s in gens:
                    # set sizes tell what was new: one hash per insert
                    b, held = multiply(s, a), len(met)
                    met.add(b)
                    if len(met) == held:
                        continue   # met before: its image is known
                    moved = tuple([act(s, p) for p in image])
                    held = len(seen)
                    seen.add(moved)
                    if len(seen) > held:
                        grown.append((moved, b))
                        yield r, moved, b
                if len(met) > cap:
                    raise ResourceCapError("orbit search exceeded cap %d"
                                           % cap)
            if not grown:
                return
            layer = grown

    def distance(self, x, y) -> Fraction:
        if self._dist is not None:
            return self._dist(x, y)
        return cantor_distance(x, y)

    def equal(self, x, y) -> bool:
        """Every point is held in one canonical form (``make_point``,
        ``canonical_point``; a circle point reduces its turn mod 1), so
        ``x == y`` iff ``distance(x, y) == 0``."""
        return x == y

    def cell(self, x, depth: int) -> Callable:
        """The test y -> ``distance(x, y) <= 2^-depth``: whether y lies
        in the depth cell of x.  x's side is worked out once.  A
        symbol-space point is read once over the depth window, and each
        y compares its own read of that window; a system with its own
        metric fixes 2^-depth once and asks it."""
        _check_int(depth, "depth", 1)
        if self._dist is not None:
            dist, eps = self._dist, Fraction(1, 2 ** depth)
            return lambda y: dist(x, y) <= eps
        lo, hi = self.scheme.depth_window(depth)
        word = read_symbols(x, lo, hi)
        return lambda y: read_symbols(y, lo, hi) == word

    def require_integer_action(self) -> None:
        """Raise ``DomainError`` unless the acting group is Z."""
        if self.group.variant != "integers":
            raise DomainError("analyzer needs an integer acting group, "
                              "system %r has %s"
                              % (self.system_id, self.group.describe()))

    def returns(self, x, depth: int, ns: range):
        """The shifts n of ``ns`` that return x into its own depth cell,
        ``cell(x, depth)(act(n, x))``, yielded in the order of ``ns``.

        By default the orbit is walked in the order of ``ns``: 0 is x
        itself and returns, the first nonzero n is ``act(n, x)``, and
        every later n is ``act(ns.step, ·)`` of the point before it,
        which is exact because the integer action is a group action.
        So each nonzero n costs one act, and an act by a small step is
        cheap (an odometer carry walks a digit or two).  Each point
        met is asked x's ``cell``, whose side of x is worked out once.
        A shift answers exactly without building a point
        (``shift_returns``):

        - it moves m -> x(m + n), so ``T^n x`` agrees with x at the
          offsets < depth iff x's symbols on [n - depth + 1,
          n + depth - 1] equal its symbols on [-depth + 1, depth - 1];
        - a word that lies wholly in a periodic tail equals the word
          one tail period further in, so every n may be folded into a
          hull of the window widened by the depth and the two periods.
          x is read once over the part of that hull the range reaches,
          whatever the range's length, and each n compares two list
          slices.
        """
        self.require_integer_action()
        _check_int(depth, "depth", 1)
        if not isinstance(ns, range):
            raise PreconditionError("shifts must be given as a range")
        if self._returns is not None:
            return self._returns(x, depth, ns)
        home = self.cell(x, depth)

        def walk():
            act, step = self.act, ns.step
            for i, n in enumerate(ns):
                if n == 0:
                    y = x
                    yield n
                    continue
                y = act(step, y) if i else act(n, x)
                if home(y):
                    yield n

        return walk()

    def required_input_depth(self, g, depth: int) -> int:
        _check_int(depth, "depth", 1)
        self.group.validate(g)
        return self._input_depth(g, depth)

    # -- named points and families

    def point(self, name: str):
        try:
            return self._points[name]
        except KeyError:
            raise DomainError("system %r has no point named %r (have: %s)"
                              % (self.system_id, name,
                                 ", ".join(sorted(self._points))))

    def point_names(self) -> tuple:
        return tuple(sorted(self._points))

    def family(self, name: str, *args, **kwargs):
        try:
            builder = self._families[name]
        except KeyError:
            raise DomainError("system %r has no point family %r"
                              % (self.system_id, name))
        return builder(*args, **kwargs)

    def family_names(self) -> tuple:
        return tuple(sorted(self._families))

    # -- optional structure

    def language(self, length: int) -> Optional[frozenset]:
        """Admissible words of the given length, for subshift systems."""
        _check_int(length, "word length", 1)
        if self._language is None:
            return None
        if length not in self._language_cache:
            self._language_cache[length] = self._language(length)
        return self._language_cache[length]

    def neighbor_reps(self, x, depth: int) -> tuple:
        """Finite set of representative points within 2^-depth of x."""
        if self._reps is None:
            raise DomainError("system %r has no neighborhood representatives"
                              % self.system_id)
        return tuple(self._reps(x, depth))

    def format_point(self, x) -> str:
        if self._format_point is not None:
            return self._format_point(x)
        return repr(x)

    # -- description

    def describe(self) -> str:
        return "%s (%s, group %s)" % (self.system_id, self.kind,
                                      self.group.describe())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<system %s>" % self.system_id


# ---------------------------------------------------------------------------
# shared point builders


def shift_point(x: Point, n: int) -> Point:
    """The point m -> x(m + n) (two-sided schemes).

    A point with a non-empty window moves as it is, in O(1): a
    two-sided scheme has one alphabet at every coordinate, so the
    symbols stay valid, and ``canonical_point`` reads only the window
    and the tails, so the translate of a canonical point is canonical.
    An empty window is anchored by coordinate, so it goes through
    ``canonical_point`` again."""
    if x.scheme.kind != "two-sided":
        raise DomainError("shift needs a two-sided scheme")
    if n == 0:
        return x
    if x.window:
        return _trusted_point(x.scheme, x.lo - n, x.hi - n, x.window,
                              x.right, x.left)
    return canonical_point(x.scheme, x.lo - n, (), x.right, x.left)


def shift_returns(x: Point, depth: int, ns: range):
    """``FlowSystem.returns`` for a shift: the n of ``ns`` whose
    depth word x[n - depth + 1 .. n + depth - 1] equals the central
    one.

    The word at n >= top = x.hi + depth lies in the right tail, so it
    is the word at n - p (p the right pattern's length) while that
    stays >= top; likewise below bottom = x.lo - depth with the left
    period q.  Folding n into [bottom - q + 1, top + p - 1] keeps its
    word, so x is read once over the folded hull of ``ns`` and 0: a
    bounded read however far the range reaches, and the words are
    compared lazily, so a consumer that stops at the first return
    pays for no more."""
    if not ns:
        return iter(())
    p, q = len(x.right), len(x.left)
    top, bottom = x.hi + depth, x.lo - depth
    first = min(max(min(ns[0], ns[-1], 0), bottom - q + 1), top)
    last = max(min(max(ns[0], ns[-1], 0), top + p - 1), bottom)
    symbols = read_symbols(x, first - depth + 1, last + depth - 1)
    width = 2 * depth - 1

    def fold(n: int) -> int:
        if n >= top:
            return top + (n - top) % p
        if n <= bottom:
            return bottom - (bottom - n) % q
        return n

    def scan(word):
        for n in ns:
            i = (n if bottom < n < top else fold(n)) - first
            if symbols[i:i + width] == word:
                yield n

    centre = fold(0) - first
    return scan(symbols[centre:centre + width])


def step_point(scheme: Scheme, i: int) -> Point:
    """The two-sided point that is 0 at coordinates <= i and 1 above."""
    _check_int(i, "step coordinate", None)
    return make_point(scheme, {}, right=1, left=0, lo=i + 1)


def ring_point(scheme: Scheme, j: int, flip_at: Optional[int] = None) -> Point:
    """The point that is 0 exactly on [-j, j], optionally flipped at
    one coordinate of that block."""
    _check_int(j, "ring index")
    window = {c: 0 for c in range(-j, j + 1)}
    if flip_at is not None:
        if flip_at not in window:
            raise RangeError("flip coordinate %d outside [-%d, %d]"
                             % (flip_at, j, j))
        window[flip_at] = 1
    return make_point(scheme, window, right=1, left=1)


def _flip_coords(y: Point, coords) -> Point:
    """Flip the binary symbols of a two-sided point at the given
    coordinates.

    The symbols over the widened window are read in place by
    ``read_symbols``, and ``canonical_point`` builds the result: a
    flipped binary symbol is a binary symbol, and the re-anchored tails
    stay primitive, so nothing is checked again.
    """
    if not coords:
        return y
    lo = min(min(coords), y.lo)
    hi = max(max(coords), y.hi)
    symbols = read_symbols(y, lo, hi)
    for c in coords:
        symbols[c - lo] ^= 1
    return canonical_point(y.scheme, lo, tuple(symbols),
                           reanchor_tail(y.right, hi - y.hi),
                           reanchor_tail(y.left, y.lo - lo))


def _shift_act(n: int, x: Point) -> Point:
    return shift_point(x, n)


def _widening_depth(n: int, depth: int) -> int:
    """Input depth of a shift by n: the window widens by |n|."""
    return depth + abs(n)


def _same_depth(g, depth: int) -> int:
    """Input depth of an action whose image to a depth is fixed by the
    point to the same depth (odometer carries, the successor dial, the
    component quotient's trivial action)."""
    return depth


def _tagged_distance(a, b) -> Fraction:
    """Distance of (symbol point, tag) pairs: 1 across tags, the
    symbol-space distance within one tag."""
    (ya, ta), (yb, tb) = a, b
    if ta != tb:
        return Fraction(1)
    return cantor_distance(ya, yb)


def _constant_fill_reps(scheme: Scheme):
    """Representative neighbors for symbol-space points: the point
    itself plus each completion of its depth window by a constant
    symbol, one that is valid at every coordinate of the scheme."""
    alphabet = scheme.alphabet
    if isinstance(alphabet, int):
        fills = range(alphabet)
    elif isinstance(alphabet, tuple):
        fills = range(min(alphabet))
    else:                       # "index": every coordinate carries >= 2
        fills = range(2)
    two_sided = scheme.kind == "two-sided"

    def reps(x: Point, depth: int) -> tuple:
        lo, hi = scheme.depth_window(depth)
        word = read_symbols(x, lo, hi)
        return tuple(dict.fromkeys(
            [x] + [make_point(scheme, word, s, s if two_sided else None,
                              lo=lo) for s in fills]))

    return reps


def _shift_system(system_id: str, scheme: Scheme, language: Callable,
                  points: Mapping, families: Mapping,
                  summary: str) -> FlowSystem:
    """A subshift of the two-sided ``scheme`` under translation by Z:
    the shift act and its widening input depth, the exact return scan
    ``shift_returns``, and the constant-fill neighbors."""
    return FlowSystem(
        system_id, "cylinder-z", IntegerGroup(), scheme, _shift_act,
        _widening_depth, points, language_fn=language,
        reps_fn=_constant_fill_reps(scheme), returns_fn=shift_returns,
        families=families, summary=summary)


# ---------------------------------------------------------------------------
# full shift


def build_full_shift(alphabet: int = 2) -> FlowSystem:
    scheme = Scheme("two-sided", alphabet=alphabet)

    def language(length: int) -> frozenset:
        if alphabet ** length > LANGUAGE_CAP:
            raise ResourceCapError("the %d-symbol full shift has %d words of "
                                   "length %d, over the cap of %d"
                                   % (alphabet, alphabet ** length, length,
                                      LANGUAGE_CAP))
        return frozenset(itertools.product(range(alphabet), repeat=length))

    points = {
        "zero": make_point(scheme, {}, right=0, left=0),
        "one": make_point(scheme, {}, right=1, left=1),
        "alternating": make_point(scheme, {}, right=periodic_tail((0, 1)),
                                  left=periodic_tail((1, 0))),
        "step": step_point(scheme, 0),
    }
    def single(k: int) -> Point:
        _check_int(k, "single coordinate", None)
        return make_point(scheme, {k: 1}, right=0, left=0)

    families = {"step": lambda i: step_point(scheme, i), "single": single}
    return _shift_system(
        "full-shift", scheme, language, points, families,
        "every bi-infinite word over %d symbols under translation"
        % alphabet)


# ---------------------------------------------------------------------------
# odometers


def odometer_add(scheme: Scheme, n: int, x: Point) -> Point:
    """Add the integer n in the mixed-radix carry arithmetic.

    The cost grows with the digits the carry touches, not with the
    window: each digit is read in place (from the window, or from the
    right tail by index) only when the carry reaches it, and its size
    comes from the scheme's alphabet (an int, or a tuple cycling from
    the start).  The walk stops when the carry dies, or after
    ``max(window, digits of |n| + 1) + lcm(tail period, alphabet
    period) + 2`` digits: past the digits of |n| the carry is -1, 0 or
    1, and one that survives a whole period of the tail means the tail
    is uniformly extremal, so it wraps to 0 (or to the maximal digits).

    The result is the same ``Point`` that ``make_point`` would return.
    Every new digit is ``total % size``, so in range.  The carry walks
    the window first, and the digits of |n| and the walk's bound are
    worked out only when it leaves the window.  A carry that dies
    inside the window leaves the last window symbol and the tail as
    they were, so no edge absorbs and the point is built as it is.
    Otherwise ``canonical_point`` drops the trailing digits that repeat
    the re-anchored (or the wrap) tail.
    """
    if n == 0:
        return x
    sizes = scheme.alphabet if isinstance(scheme.alphabet, tuple) \
        else (scheme.alphabet,)
    m = len(sizes)
    window = x.window
    width = len(window)
    digits = []
    carry, i = n, 0
    while carry and i < width:
        carry, digit = divmod(window[i] + carry, sizes[i % m])
        digits.append(digit)
        i += 1
    if not carry and i < width:
        return _trusted_point(scheme, x.lo, x.hi, tuple(digits) + window[i:],
                              x.right)
    if carry:
        tail = x.right
        period = len(tail)
        count, place, amount = 0, 1, abs(n)     # count: the digits of |n|
        while place <= amount:
            place *= sizes[count % m]
            count += 1
        limit = max(width, count + 1) + math.lcm(period, m) + 2
        while carry and i < limit:
            carry, digit = divmod(tail[(i - width) % period] + carry,
                                  sizes[i % m])
            digits.append(digit)
            i += 1
    if not carry:
        right = reanchor_tail(x.right, i - width)
    elif carry > 0:
        right = (0,)
    else:
        right = periodic_tail(tuple(sizes[(i + k) % m] - 1
                                    for k in range(m)))
    return canonical_point(scheme, x.lo, tuple(digits), right)


def build_odometer(moduli: Sequence[int] = (2,)) -> FlowSystem:
    moduli = tuple(moduli)
    if not moduli or any(type(m) is not int or m < 2 for m in moduli):
        raise DomainError("odometer moduli must all be >= 2")
    alphabet: object = moduli[0] if len(set(moduli)) == 1 else moduli
    scheme = Scheme("one-sided", start=0, alphabet=alphabet)

    def act(n: int, x: Point) -> Point:
        return odometer_add(scheme, n, x)

    zero = make_point(scheme, [], right=0)
    maxes = tuple(scheme.size(k) - 1 for k in range(scheme.alphabet_period()))
    points = {
        "zero": zero,
        "one": odometer_add(scheme, 1, zero),
        "minus-one": make_point(scheme, [], right=periodic_tail(maxes)),
    }
    label = "odometer" if moduli == (2,) else \
        "odometer-" + "".join(str(m) for m in moduli)
    return FlowSystem(
        label, "cylinder-z", IntegerGroup(), scheme, act, _same_depth, points,
        reps_fn=_constant_fill_reps(scheme),
        summary="carry arithmetic on digit streams with moduli cycling "
                "through %s" % (list(moduli),))


# ---------------------------------------------------------------------------
# substitution subshift


TM_RULES: Mapping[int, tuple] = {0: (0, 1), 1: (1, 0)}


def substitution_factors(rules: Mapping[int, tuple], length: int) -> frozenset:
    """Words of the given length appearing in the iterated substitution.

    Expands the first letter until the factor set repeats, which is the
    admissible language of the associated subshift for primitive rules
    whose images all start revisiting every letter.
    """
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    word = (min(rules),)
    prev: Optional[frozenset] = None
    for _ in range(64):
        word = tuple(s for a in word for s in rules[a])
        if len(word) < 2 * length:
            continue
        factors = frozenset(word[i:i + length]
                            for i in range(len(word) - length + 1))
        if factors == prev:
            return factors
        prev = factors
    raise PreconditionError("substitution language did not stabilize")


def reflected_expansion(rules: Mapping[int, tuple], radius: int,
                        scheme: Scheme, flip_right: bool = False) -> Point:
    """Mirror-extension point of the iterated substitution.

    The right half carries the substitution's fixed sequence, the left
    half its reflection, which is admissible because the language is
    closed under reversal.  Outside the requested radius the
    description falls back to constant 0, so callers must pick the
    radius beyond every horizon and depth they will probe.
    """
    _check_int(radius, "radius", 1)
    seq = (min(rules),)
    while len(seq) <= radius:
        seq = tuple(s for a in seq for s in rules[a])
    window = {}
    for c in range(-radius, radius + 1):
        v = seq[c] if c >= 0 else seq[-c - 1]
        if flip_right and c >= 0:
            v = 1 - v
        window[c] = v
    return make_point(scheme, window, right=0, left=0)


def build_thue_morse() -> FlowSystem:
    scheme = Scheme("two-sided", alphabet=2)
    families = {
        "reflection": lambda radius: reflected_expansion(TM_RULES, radius,
                                                         scheme),
        "reflection-flipped": lambda radius: reflected_expansion(
            TM_RULES, radius, scheme, flip_right=True),
    }
    points = {name: build(64) for name, build in families.items()}
    return _shift_system(
        "thue-morse", scheme,
        functools.partial(substitution_factors, TM_RULES), points, families,
        "the doubling substitution 0->01, 1->10 under translation")


# ---------------------------------------------------------------------------
# successor space


def _first_active(x: Point) -> Optional[int]:
    """The first nonzero coordinate: the window is read from the scheme
    start, where a one-sided window is anchored, then one period of the
    right tail, past which the tail only repeats."""
    for i, s in enumerate(x.window):
        if s:
            return x.lo + i
    for k, s in enumerate(x.right):
        if s:
            return x.hi + 1 + k
    return None


def successor_act(n: int, x: Point) -> Point:
    """Turn the dial at q, one past the first engaged position, by n.
    Only the symbol at q changes, so the result is built directly: a
    change before the last window symbol leaves the point canonical,
    and so does a new last symbol that differs from the last symbol of
    the re-anchored tail, since then no edge absorbs.  Otherwise
    ``canonical_point`` trims the symbols through q against the
    tail."""
    p = _first_active(x)
    if p is None:
        return x
    q = p + 1
    idx = q - x.lo
    window = x.window
    tail = x.right
    dial = window[idx] if idx < len(window) \
        else tail[(idx - len(window)) % len(tail)]
    digit = (dial + n) % q
    if idx < len(window) - 1:
        return _trusted_point(x.scheme, x.lo, x.hi,
                              window[:idx] + (digit,) + window[idx + 1:],
                              x.right)
    extra = idx + 1 - len(window)
    symbols = window[:idx] + tuple(tail[k % len(tail)]
                                   for k in range(extra - 1)) + (digit,)
    right = reanchor_tail(tail, extra)
    if digit != right[-1]:
        return _trusted_point(x.scheme, x.lo, q, symbols, right)
    return canonical_point(x.scheme, x.lo, symbols, right)


def build_successor_map() -> FlowSystem:
    scheme = Scheme("one-sided", start=2, alphabet="index")
    points = {
        "zero": make_point(scheme, [], right=0),
        "unit": make_point(scheme, [1], right=0),
    }

    def unit_at(c: int) -> Point:
        """The point whose one engaged position is coordinate c."""
        if type(c) is int:
            scheme.check_coord(c)
        _check_int(c, "unit coordinate", scheme.start)
        return make_point(scheme, [0] * (c - scheme.start) + [1], right=0)

    return FlowSystem(
        "successor-map", "cylinder-z", IntegerGroup(), scheme, successor_act,
        _same_depth, points, reps_fn=_constant_fill_reps(scheme),
        families={"unit-at": unit_at},
        summary="turn the dial after the first engaged position; "
                "coordinate n carries n symbols")


# ---------------------------------------------------------------------------
# two-copy sign extension


class _FlipGroup(Group):
    """A word group whose element pairs a set of flip coordinates in
    [-m, m] with a second part, which a subclass names and checks."""

    def __init__(self, m: int):
        if m < 1:
            raise DomainError("truncation index must be >= 1")
        self.m = m

    def validate(self, g) -> None:
        if not (isinstance(g, tuple) and len(g) == 2):
            raise RangeError("element must be a (flips, %s) pair"
                             % self.second_part)
        v = g[0]
        if not isinstance(v, frozenset) or \
                any(type(c) is not int for c in v):
            raise RangeError("flip part must be a frozenset of ints")
        if any(abs(c) > self.m for c in v):
            raise RangeError("flip coordinate outside truncation range")


class TwoCopyGroup(_FlipGroup):
    """Group generated by coordinate flips and region-conditioned sign
    swaps, in exact normal form.

    An element is a pair (flips, region): a finite set of coordinates
    whose symbols get flipped, and the clopen set of base points whose
    copy sign gets reversed.  Composition follows
    (v, D)(w, E) = (v + w, (D shifted by w) xor E), all computed on
    canonical clopen sets, so element equality is exact.
    """

    variant = "two-copy-word"
    second_part = "region"

    def __init__(self, m: int):
        super().__init__(m)
        self.scheme = Scheme("two-sided", alphabet=2)
        self._empty = clopen(self.scheme, 0, [])
        gens = {}
        for j in range(-m, m + 1):
            gens["e%d" % j] = (frozenset({j}), self._empty)
        for i in range(1, m + 1):
            gens["b%d" % i] = (frozenset(), self._region(i))
        self._named = gens

    def _region(self, i: int) -> ClopenSet:
        pattern = (0,) * (2 * i + 1) + (1,)
        return clopen(self.scheme, -i, [pattern])

    @property
    def identity(self):
        return (frozenset(), self._empty)

    def multiply(self, a, b):
        va, da = a
        vb, db = b
        return (va ^ vb, sym_diff(_flip_region(da, vb), db))

    def inverse(self, a):
        v, d = a
        return (v, _flip_region(d, v))

    def generators(self) -> tuple:
        return (self.identity, *self._named.values())

    def named_generator(self, name: str):
        try:
            return self._named[name]
        except KeyError:
            raise DomainError("no generator named %r" % name)

    def validate(self, g) -> None:
        super().validate(g)
        if not isinstance(g[1], ClopenSet):
            raise RangeError("region part must be a clopen set")

    def sort_key(self, g):
        v, d = g
        return (len(v), tuple(sorted(v)), _admitted_count(d), d.lo, d.hi,
                tuple(_admitted_codes(d)))

    def format_element(self, g) -> str:
        for name, el in self._named.items():
            if el == g:
                return name
        v, d = g
        if g == self.identity:
            return "1"
        flips = ",".join(str(c) for c in sorted(v)) if v else "-"
        if d.is_empty:
            region = "-"
        else:
            region = "[%d..%d:%d]" % (d.lo, d.hi, _admitted_count(d))
        return "flips{%s}signs%s" % (flips, region)


def _flip_region(d: ClopenSet, v: frozenset) -> ClopenSet:
    """Image of a binary clopen set under flipping the coordinates in v.

    A flip at coordinate c toggles the digit of weight 2^(hi - c) in
    every code, so the image is each held code XOR one mask, held on the
    same side: a flip is a bijection on patterns, so it keeps the
    admitted count.  It lives on ``d``'s own window and is canonical as
    it stands: a flip permutes the two symbols at its coordinate, so at
    an edge it maps the symbols a residual admits onto as many, and
    inside the window it only renames residuals.  An edge coordinate is
    free for the image iff it is free for ``d``.
    """
    if d.lo > d.hi or not v:
        return d
    mask = sum(1 << (d.hi - c) for c in v if d.lo <= c <= d.hi)
    if not mask:
        return d
    return ClopenSet(d.scheme, d.lo, d.hi,
                     frozenset([c ^ mask for c in d.codes]), d.complemented)


def build_two_copy(m: int = 3) -> FlowSystem:
    group = TwoCopyGroup(m)
    scheme = group.scheme

    def act(g, x):
        v, d = g
        y, sign = x
        return (_flip_coords(y, v), sign * (-1 if d.member(y) else 1))

    def input_depth(g, depth: int) -> int:
        v, d = g
        if d.lo > d.hi:
            return depth
        return max(depth, max(abs(d.lo), abs(d.hi)) + 1)

    def fmt(x) -> str:
        y, sign = x
        return "(%s, %s)" % ("+" if sign > 0 else "-", y)

    zero = make_point(scheme, {}, right=0, left=0)
    points = {
        "o-plus": (zero, 1),
        "o-minus": (zero, -1),
    }
    def step(i: int, sign: int = 1):
        if type(sign) is not int or sign not in (1, -1):
            raise RangeError("sign must be 1 or -1")
        return (step_point(scheme, i), sign)
    return FlowSystem(
        "two-copy", "cylinder-word", group, scheme, act, input_depth, points,
        dist_fn=_tagged_distance, families={"step": step},
        format_point_fn=fmt,
        summary="two copies of the binary shift space glued by "
                "region-conditioned sign swaps (truncation %d)" % m)


# ---------------------------------------------------------------------------
# flip-and-count sign extension


def _check_bit(b) -> None:
    if type(b) is not int or b not in (0, 1):
        raise RangeError("parity bit must be 0 or 1")


class McMahonGroup(_FlipGroup):
    """Abelian group generated by single-coordinate flip-and-count
    moves, in exact normal form.

    An element is (flip set, parity bit); composition is
    (S, b)(T, c) = (S xor T, b + c + |S & T|), which realizes each
    generator as an order-4 element whose square is the shared central
    parity swap.
    """

    variant = "flip-count-word"
    second_part = "parity"

    @property
    def identity(self):
        return (frozenset(), 0)

    def multiply(self, a, b):
        s, u = a
        t, v = b
        return (s ^ t, (u + v + len(s & t)) % 2)

    def inverse(self, a):
        s, u = a
        return (s, (u + len(s)) % 2)

    def generators(self) -> tuple:
        out = [self.identity]
        for i in range(-self.m, self.m + 1):
            out.append((frozenset({i}), 0))
            out.append((frozenset({i}), 1))
        return tuple(out)

    def validate(self, g) -> None:
        super().validate(g)
        _check_bit(g[1])

    def sort_key(self, g):
        s, b = g
        return (len(s) + b, tuple(sorted(s)), b)

    def closed_form_length(self, g) -> int:
        s, b = g
        if s:
            return len(s)
        return 0 if b == 0 else 2

    def format_element(self, g) -> str:
        s, b = g
        if not s and not b:
            return "e"
        parts = ["t%d" % i for i in sorted(s)]
        if b:
            parts.append("s")
        return "*".join(parts)


def build_mcmahon(m: int = 3) -> FlowSystem:
    group = McMahonGroup(m)
    scheme = Scheme("two-sided", alphabet=2)

    def act(g, x):
        s, b = g
        y, bit = x
        count = sum(y.value(i) for i in s)
        return (_flip_coords(y, s), (bit + count + b) % 2)

    def input_depth(g, depth: int) -> int:
        s, _ = g
        if not s:
            return depth
        return max(depth, max(abs(i) for i in s) + 1)

    def fmt(x) -> str:
        y, bit = x
        return "(%d, %s)" % (bit, y)

    zero = make_point(scheme, {}, right=0, left=0)
    points = {
        "base": (zero, 0),
        "marked": (zero, 1),
    }
    def marked(y: Point, bit: int):
        _check_bit(bit)
        return (y, bit)

    families = {
        "ring": lambda j, bit=0: marked(ring_point(scheme, j), bit),
        "ring-flipped": lambda j, bit=0: marked(
            ring_point(scheme, j, flip_at=j), bit),
    }
    return FlowSystem(
        "mcmahon", "cylinder-word", group, scheme, act, input_depth, points,
        dist_fn=_tagged_distance, families=families, format_point_fn=fmt,
        summary="binary shift space with a parity bit fed by the flipped "
                "coordinate (truncation %d)" % m)


# ---------------------------------------------------------------------------
# circle stack


def level_radius(level: Optional[int]) -> Fraction:
    """Radius of a stack circle: level/(level+1), 1 for the limit
    circle (level None)."""
    if level is None:
        return Fraction(1)
    return Fraction(level, level + 1)


@dataclass(frozen=True)
class CirclePoint:
    """A point on one circle of the stack: ``level`` is a positive
    integer or None for the limit circle; ``turn`` is the angular
    position in full turns, an int or Fraction stored reduced modulo 1
    (a float would bring its binary expansion: 0.1 is not 1/10)."""

    level: Optional[int]
    turn: Fraction

    def __post_init__(self):
        if self.level is not None and (type(self.level) is not int
                                       or self.level < 1):
            raise RangeError("level must be a positive int or None")
        if type(self.turn) not in (int, Fraction):
            raise PreconditionError("turn must be an int or Fraction, got %r"
                                    % (self.turn,))
        object.__setattr__(self, "turn", Fraction(self.turn) % 1)

    @property
    def radius(self) -> Fraction:
        return level_radius(self.level)

    @property
    def step(self) -> Fraction:
        """Rotation advance per action step on this circle."""
        if self.level is None:
            return Fraction(0)
        return Fraction(1, self.level + 1)

    def __repr__(self) -> str:
        name = "limit" if self.level is None else str(self.level)
        return "<circle %s @ %s>" % (name, self.turn)


def _arc(a: Fraction, b: Fraction) -> Fraction:
    d = abs(a - b)
    return 2 * min(d, 1 - d)


def circle_distance(p: CirclePoint, q: CirclePoint) -> Fraction:
    return max(abs(p.radius - q.radius), _arc(p.turn, q.turn))


def _circle_reps(p: CirclePoint, depth: int) -> tuple:
    eps = Fraction(1, 2 ** depth)
    out = [p]
    if p.level is None:
        out.append(CirclePoint(max(1, 2 ** depth - 1), p.turn))
    else:
        for m in (p.level - 1, p.level + 1):
            if m >= 1 and abs(CirclePoint(m, p.turn).radius - p.radius) <= eps:
                out.append(CirclePoint(m, p.turn))
        if 1 - p.radius <= eps:
            out.append(CirclePoint(None, p.turn))
    out.append(CirclePoint(p.level, p.turn + eps / 4))
    return tuple(out)


def build_circle_stack() -> FlowSystem:
    def act(n: int, p: CirclePoint) -> CirclePoint:
        if p.level is None:
            return p
        return CirclePoint(p.level, p.turn + n * p.step)

    def input_depth(n: int, depth: int) -> int:
        if n == 0:
            return depth
        return depth + 1 + abs(n).bit_length()

    points = {
        "level-1": CirclePoint(1, Fraction(0)),
        "level-2": CirclePoint(2, Fraction(0)),
        "limit": CirclePoint(None, Fraction(0)),
    }
    families = {
        "level": lambda n, turn=Fraction(0): CirclePoint(n, turn),
        "limit-at": lambda turn: CirclePoint(None, turn),
    }
    return FlowSystem(
        "circle-stack", "tower", IntegerGroup(), None, act, input_depth,
        points,
        dist_fn=circle_distance, reps_fn=_circle_reps, families=families,
        summary="circles of radius level/(level+1) each rotated by "
                "1/(level+1), plus a fixed limit circle")


def circle_component(p: CirclePoint):
    """Projection of a stack point to its component label."""
    return p.level


def component_projection(base: FlowSystem) -> FlowSystem:
    """Collapse each connected component of a tower system to a point.

    The action becomes trivial because every component is preserved;
    distances compare component radii.
    """
    if base.kind != "tower":
        raise DomainError("component projection needs a tower system")

    def act(n: int, level):
        return level

    def dist(a, b) -> Fraction:
        return abs(level_radius(a) - level_radius(b))

    def reps(level, depth: int) -> tuple:
        """The components of the stack point's representatives."""
        stack = _circle_reps(CirclePoint(level, Fraction(0)), depth)
        return tuple(dict.fromkeys(circle_component(p) for p in stack))

    def fmt(level) -> str:
        return "limit" if level is None else "level %d" % level

    points = {name: circle_component(p)
              for name, p in [(n, base.point(n)) for n in base.point_names()]}
    return FlowSystem(
        base.system_id + "-components", "quotient", base.group, None, act,
        _same_depth, points, dist_fn=dist, reps_fn=reps,
        families={"level": lambda n: circle_component(
            CirclePoint(n, Fraction(0)))},
        format_point_fn=fmt,
        summary="components of %s collapsed to points; the action "
                "becomes trivial" % base.system_id)


# ---------------------------------------------------------------------------
# registry


SYSTEM_BUILDERS: Mapping[str, Callable[[], FlowSystem]] = {
    "full-shift": build_full_shift,
    "thue-morse": build_thue_morse,
    "odometer": build_odometer,
    "successor-map": build_successor_map,
    "two-copy": build_two_copy,
    "mcmahon": build_mcmahon,
    "circle-stack": build_circle_stack,
    "circle-stack-components":
        lambda: component_projection(build_circle_stack()),
}


def available_systems() -> tuple:
    return tuple(sorted(SYSTEM_BUILDERS))


_BUILT: dict = {}   # builder -> the system it built, once per process


def get_system(system_id: str) -> FlowSystem:
    """A fresh system of the catalog entry ``system_id``.

    Each entry is built once per process, keyed by its
    ``SYSTEM_BUILDERS`` function, so a builder swapped in later is
    built in its turn.  Every call returns a new ``FlowSystem`` that
    shares the built one's immutable parts: the scheme, the named
    points, the families, the act, input-depth, language, reps and
    format functions, and the summary.  It has its own group instance,
    which carries no Cayley search over, and an empty language cache.
    So a search, a cache or an attribute set on one system is not seen
    by the next, while ``point(name)`` is the same object on every
    call.
    """
    try:
        builder = SYSTEM_BUILDERS[system_id]
    except KeyError:
        raise DomainError("unknown system %r (have: %s)"
                          % (system_id, ", ".join(available_systems())))
    built = _BUILT.get(builder)
    if built is None:
        built = _BUILT[builder] = builder()
    fresh = object.__new__(type(built))
    state = fresh.__dict__
    state.update(built.__dict__)
    state["group"] = groups._unsearched_copy(built.group)
    state["_language_cache"] = {}
    return fresh
