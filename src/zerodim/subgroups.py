"""Finite-index subgroups and the algebra the recurrence analyzers need.

Subgroups are represented per group variant: a modulus for the
integers, an integer basis matrix for lattices, an explicit closed
element set for finite groups, and per-coordinate divisors for
truncated cyclic sums.  Free groups carry no subgroup representation
here.  Each variant intersects its subgroups and takes their normal
cores itself.  All operations are exact.

A lattice answers membership, index and intersection from the Hermite
normal form of its basis.  A cap B is the top-left d x d block of the
form of the stacked rows (a, a) and (0, b): they span {(x, x + y)}, and
as the form is lower triangular its first d rows span exactly the
vectors whose second half is zero, that is x = -y in A cap B.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DomainError, PreconditionError, RangeError
from .groups import (CyclicSumGroup, ElementSet, FiniteGroup, Group,
                     _check_int, ball, power_set, word_length)
from .verdict import Verdict, fails, holds


class Subgroup:
    """Common interface: membership, index, normality, meet, core, JSON.

    The defaults fit the abelian variants, whose subgroups are normal
    and so are their own cores."""

    variant = None  # the group variant the subgroup lives in

    def contains(self, g) -> bool:
        raise NotImplementedError

    def index(self) -> int:
        raise NotImplementedError

    def is_normal(self) -> bool:
        return True

    def meet(self, other: Subgroup) -> Subgroup:
        """Intersection with a subgroup of the same group."""
        raise NotImplementedError

    def core(self) -> Subgroup:
        """Largest normal subgroup contained in this one."""
        return self

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerSubgroup(Subgroup):
    """modulus * Z inside the integers."""

    modulus: int
    variant = "integers"

    def __post_init__(self):
        if type(self.modulus) is not int or self.modulus < 1:
            raise DomainError("modulus must be >= 1")

    def contains(self, g: int) -> bool:
        return g % self.modulus == 0

    def index(self) -> int:
        return self.modulus

    def meet(self, other: IntegerSubgroup) -> IntegerSubgroup:
        return IntegerSubgroup(math.lcm(self.modulus, other.modulus))

    def to_json(self) -> dict:
        return {"variant": self.variant, "modulus": self.modulus}


@dataclass(frozen=True)
class LatticeSubgroup(Subgroup):
    """Finite-index sublattice of Z^d spanned by the rows of ``basis``."""

    basis: tuple  # tuple of row tuples, square, det != 0
    _hnf: tuple = field(init=False, repr=False, compare=False)
    variant = "lattice"

    def __post_init__(self):
        d = len(self.basis)
        if d == 0 or any(len(row) != d or any(type(x) is not int for x in row)
                         for row in self.basis):
            raise DomainError("basis must be a square integer matrix")
        try:
            hnf = _hnf_rows(self.basis, d)
        except DomainError:
            raise DomainError("basis must have nonzero determinant "
                              "(finite index)") from None
        object.__setattr__(self, "_hnf", hnf)

    def contains(self, g: tuple) -> bool:
        # once the rows after i are divided out, row i is the only one
        # left with a nonzero entry in column i
        if len(g) != len(self._hnf):
            raise RangeError("lattice element must be an int %d-tuple"
                             % len(self._hnf))
        rest = list(g)
        for i in range(len(rest) - 1, -1, -1):
            row = self._hnf[i]
            q, r = divmod(rest[i], row[i])
            if r:
                return False
            for j in range(i):
                rest[j] -= q * row[j]
        return True

    def index(self) -> int:
        return math.prod(row[i] for i, row in enumerate(self._hnf))

    def meet(self, other: LatticeSubgroup) -> LatticeSubgroup:
        d = len(self._hnf)
        stacked = ([row + row for row in self._hnf]
                   + [(0,) * d + row for row in other._hnf])
        h = _hnf_rows(stacked, 2 * d)
        return LatticeSubgroup(tuple(row[:d] for row in h[:d]))

    def to_json(self) -> dict:
        return {"variant": self.variant,
                "basis": [list(r) for r in self.basis]}


@dataclass(frozen=True)
class FiniteSubgroup(Subgroup):
    """Explicit closed subset of a finite group."""

    group: FiniteGroup
    members: frozenset
    variant = "finite"

    def __post_init__(self):
        g = self.group
        if g.identity not in self.members:
            raise DomainError("subgroup must contain the identity")
        for a in self.members:
            if g.inverse(a) not in self.members:
                raise DomainError("subgroup not closed under inversion")
            for b in self.members:
                if g.multiply(a, b) not in self.members:
                    raise DomainError("subgroup not closed under product")

    def contains(self, g) -> bool:
        return g in self.members

    def index(self) -> int:
        return self.group.order() // len(self.members)

    def is_normal(self) -> bool:
        g = self.group
        return all(g.multiply(g.multiply(t, a), g.inverse(t)) in self.members
                   for t in g.elements() for a in self.members)

    def meet(self, other: FiniteSubgroup) -> FiniteSubgroup:
        return FiniteSubgroup(self.group, self.members & other.members)

    def core(self) -> FiniteSubgroup:
        g = self.group
        core = set(self.members)
        for t in g.elements():
            core &= {g.multiply(g.multiply(g.inverse(t), a), t)
                     for a in self.members}
        result = FiniteSubgroup(g, frozenset(core))
        if not result.is_normal():
            raise DomainError("core of %r is not normal (table inconsistent?)"
                              % (self,))
        return result

    def to_json(self) -> dict:
        return {"variant": self.variant, "members": sorted(self.members)}


@dataclass(frozen=True)
class CyclicSumSubgroup(Subgroup):
    """Per-coordinate divisor subgroup of a truncated cyclic sum:
    coordinate i ranges over divisors[i] * Z_{m_i}."""

    group: CyclicSumGroup
    divisors: tuple
    variant = "cyclic-sum"

    def __post_init__(self):
        mods = self.group.moduli
        if len(self.divisors) != len(mods):
            raise DomainError("need one divisor per coordinate")
        for d, m in zip(self.divisors, mods):
            if type(d) is not int or d < 1 or m % d != 0:
                raise DomainError("divisor %r does not divide modulus %d" % (d, m))

    def contains(self, g: tuple) -> bool:
        if len(g) != len(self.divisors):
            raise RangeError("cyclic-sum element must be a %d-tuple"
                             % len(self.divisors))
        return all(x % d == 0 for x, d in zip(g, self.divisors))

    def index(self) -> int:
        return math.prod(self.divisors)

    def meet(self, other: CyclicSumSubgroup) -> CyclicSumSubgroup:
        # d*Z_m has index d; both divisors divide m, so their lcm does
        # too and generates the intersection
        return CyclicSumSubgroup(self.group, tuple(
            math.lcm(a, b) for a, b in zip(self.divisors, other.divisors)))

    def to_json(self) -> dict:
        return {"variant": self.variant, "divisors": list(self.divisors)}


# ---------------------------------------------------------------------------
# exact integer linear algebra (small dimensions)


def _hnf_rows(rows: Sequence[Sequence[int]], dim: int) -> tuple:
    """Row span basis in Hermite normal form, by exact integer row
    reduction (Cohen, A Course in Computational Algebraic Number
    Theory, section 2.4).

    The basis is lower triangular with row i's pivot in column i, the
    pivots are positive, and every entry left of the diagonal lies in
    [0, pivot of its column).  This form is unique for a full-rank
    lattice."""
    work = [list(r) for r in rows]
    basis = []
    for col in range(dim - 1, -1, -1):
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        if not live:
            raise DomainError("row span does not have full rank %d" % dim)
        pivot = live.pop()
        for row in live:
            while row[col]:  # Euclid on this column, carried along the rows
                q = pivot[col] // row[col]
                pivot, row = row, [p - q * r for p, r in zip(pivot, row)]
            work.append(row)
        if pivot[col] < 0:
            pivot = [-p for p in pivot]
        basis.append(pivot)
    basis.reverse()
    for i in range(dim):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return tuple(tuple(r) for r in basis)


# ---------------------------------------------------------------------------
# operations


def subgroup_index(group: Group, sub: Subgroup) -> int:
    """Index of the subgroup; all representable subgroups here have
    finite index by construction."""
    _check_pair(group, sub)
    return sub.index()


def intersect_subgroups(group: Group, subs: Sequence[Subgroup]) -> Subgroup:
    """Intersection of finitely many finite-index subgroups.

    The result is again finite-index with index at most the product of
    the inputs' indices (checked)."""
    if not subs:
        raise PreconditionError("need at least one subgroup")
    for s in subs:
        _check_pair(group, s)
    out = subs[0]
    bound = 1
    for s in subs:
        bound *= s.index()
    for s in subs[1:]:
        out = out.meet(s)
    if out.index() > bound:
        raise DomainError("intersection index %d exceeds product bound %d"
                          % (out.index(), bound))
    return out


def normal_core(group: Group, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup contained in ``sub``.

    Abelian variants return the subgroup unchanged; finite groups
    intersect all conjugates (a finite transversal suffices, and the
    full element list is one)."""
    _check_pair(group, sub)
    return sub.core()


def induced_generating_set(group: Group, sub: Subgroup,
                           extra: Iterable = ()) -> ElementSet:
    """Cube of the (optionally augmented) generating set, intersected
    with the subgroup.

    When the subgroup is syndetic with respect to the augmented
    generators, this finite set generates it; ``generation_check``
    verifies the containment of deeper ball slices in its powers.
    """
    _check_pair(group, sub)
    gens = set(group.generators()) | set(extra)
    for x in list(gens):
        gens.add(group.inverse(x))
    cube = set()
    for a, b, c in itertools.product(gens, repeat=3):
        cube.add(group.multiply(group.multiply(a, b), c))
    return ElementSet(frozenset(g for g in cube if sub.contains(g)))


def generation_check(group: Group, sub: Subgroup, n_max: int,
                     extra: Iterable = ()) -> Verdict:
    """Is every ball slice of the subgroup a product of induced
    generators?  Checks ball(n) cap sub inside psi^n for n <= n_max,
    where psi is the induced generating set.  ``n_max`` must be an
    exact int >= 1."""
    _check_int(n_max, "n_max", 1)
    psi = induced_generating_set(group, sub, extra)
    params = {"n_max": n_max, "induced_size": len(psi)}
    power = {group.identity} | set(psi.elements)
    for n in range(1, n_max + 1):
        if n > 1:
            power = {group.multiply(a, p) for a in power for p in psi.elements} | power
        slice_n = {g for g in power_set(group, n) if sub.contains(g)}
        missing = slice_n - power
        if missing:
            g = sorted(missing, key=group.sort_key)[0]
            return fails("generation-check", params,
                         {"counterexample": group.format_element(g), "n": n})
    return holds("generation-check", params, {"checked_to": n_max})


def generates_within(group: Group, sub: Subgroup, gens: ElementSet,
                     radius: int) -> Verdict:
    """Do products of ``gens`` reach every subgroup element in the
    radius ball?  Exploration is allowed up to 2 * radius."""
    target = {g for g in ball(group, radius) if sub.contains(g)}
    limit = 2 * radius
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = group.multiply(a, s)
                if b in seen:
                    continue
                if word_length(group, b) > limit:
                    continue
                seen.add(b)
                nxt.append(b)
        frontier = nxt
    missing = target - seen
    params = {"radius": radius, "generators": len(gens)}
    if missing:
        g = sorted(missing, key=group.sort_key)[0]
        return fails("generates-within", params,
                     {"unreached": group.format_element(g)})
    return holds("generates-within", params, {"reached": len(target)})


def _check_pair(group: Group, sub: Subgroup) -> None:
    if sub.variant != group.variant:
        raise DomainError("subgroup type %s does not match group variant %r"
                          % (type(sub).__name__, group.variant))
    if sub.variant == "lattice" and len(sub.basis) != group.dim:
        raise DomainError("sublattice of Z^%d does not lie in Z^%d"
                          % (len(sub.basis), group.dim))
    if sub.variant == "cyclic-sum" and sub.group.moduli != group.moduli:
        raise DomainError("subgroup of a cyclic sum with moduli %s does not "
                          "lie in one with moduli %s"
                          % (list(sub.group.moduli), list(group.moduli)))


# ---------------------------------------------------------------------------
# finite group construction and subgroup enumeration


def _perm_name(p: tuple) -> str:
    """Cycle notation for a permutation of 0..n-1, 1-based in the name."""
    seen = set()
    cycles = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        cycles.append(cyc)
    if not cycles:
        return "e"
    return "".join("(" + "".join(str(k + 1) for k in c) + ")" for c in cycles)


def _group_from_perms(perms: Iterable[tuple], label: str) -> FiniteGroup:
    perms = sorted(set(perms))
    names = {p: _perm_name(p) for p in perms}
    table = {}
    for a in perms:
        for b in perms:
            c = tuple(a[b[i]] for i in range(len(a)))
            table[(names[a], names[b])] = names[c]
    ident = tuple(range(len(perms[0])))
    return FiniteGroup([names[p] for p in perms], table, names[ident],
                       label=label)


def symmetric_group(n: int) -> FiniteGroup:
    perms = list(itertools.permutations(range(n)))
    return _group_from_perms(perms, "S%d" % n)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon as permutations of its vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    perms = set()
    r = tuple(range(n))
    for _ in range(n):
        perms.add(r)
        perms.add(tuple(ref[r[i]] for i in range(n)))
        r = tuple(rot[r[i]] for i in range(n))
    return _group_from_perms(perms, "D%d" % n)


def cyclic_group(n: int) -> FiniteGroup:
    names = ["g%d" % k for k in range(n)]
    names[0] = "e"
    table = {(names[a], names[b]): names[(a + b) % n]
             for a in range(n) for b in range(n)}
    return FiniteGroup(names, table, "e", label="C%d" % n)


def all_subgroups(group: FiniteGroup) -> list[FiniteSubgroup]:
    """Every subgroup, by closing subsets one generator at a time.

    Each subgroup found keeps the generators that built it, and <h, g>
    is closed from those and g.  Since <h, k*g> = <h, g> for every k in
    h, once g is tried the rest of its right coset h*g is skipped.
    """
    e = group.identity
    trivial = frozenset([e])
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            gens, tried = found[h], set(h)
            for g in group.elements():
                if g in tried:
                    continue
                tried.update(group.multiply(k, g) for k in h)
                closure = _close(group, gens + (g,))
                if closure not in found:
                    found[closure] = gens + (g,)
                    nxt.append(closure)
        frontier = nxt
    return [FiniteSubgroup(group, h)
            for h in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _close(group: FiniteGroup, seed: Iterable) -> frozenset:
    """The subgroup generated by ``seed``: a breadth-first search from
    the identity that right-multiplies by the seed elements.

    The search reaches every product of seed elements, that is the
    monoid the seed generates.  In a finite group that monoid is the
    generated subgroup: each g has finite order k, so g^-1 = g^(k-1)
    is a product of g's.  So no inverse is added and no pair of found
    elements is multiplied; the search costs |closure| * |seed|
    products.
    """
    seed = list(seed)
    out = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in seed:
                c = group.multiply(a, g)
                if c not in out:
                    out.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(out)
