"""Finite-index subgroups and the algebra the recurrence analyzers need.

Subgroups are represented per group variant: a modulus for the
integers, an integer basis matrix for lattices, an explicit closed
element set for finite groups, and per-coordinate divisors for
truncated cyclic sums.  Free groups carry no subgroup representation
here.  All operations are exact; lattice intersections go through
Hermite normal forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DomainError, PreconditionError
from .groups import (CyclicSumGroup, ElementSet, FiniteGroup, Group,
                     IntegerGroup, LatticeGroup, ball, power_set, word_length)
from .verdict import Verdict, fails, holds


class Subgroup:
    """Common interface: membership, index, normality, JSON."""

    def contains(self, g) -> bool:
        raise NotImplementedError

    def index(self) -> int:
        raise NotImplementedError

    def is_normal(self) -> bool:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IntegerSubgroup(Subgroup):
    """modulus * Z inside the integers."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError("modulus must be >= 1")

    def contains(self, g: int) -> bool:
        return g % self.modulus == 0

    def index(self) -> int:
        return self.modulus

    def is_normal(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"variant": "integers", "modulus": self.modulus}


@dataclass(frozen=True)
class LatticeSubgroup(Subgroup):
    """Finite-index sublattice of Z^d spanned by the rows of ``basis``."""

    basis: tuple  # tuple of row tuples, square, det != 0

    def __post_init__(self):
        d = len(self.basis)
        if d == 0 or any(len(row) != d for row in self.basis):
            raise DomainError("basis must be a square integer matrix")
        if _det(self.basis) == 0:
            raise DomainError("basis must have nonzero determinant "
                              "(finite index)")

    def contains(self, g: tuple) -> bool:
        # solve x * basis = g over the rationals, membership iff integral
        sol = _solve_left(self.basis, g)
        return sol is not None and all(c.denominator == 1 for c in sol)

    def index(self) -> int:
        return abs(_det(self.basis))

    def is_normal(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"variant": "lattice", "basis": [list(r) for r in self.basis]}


@dataclass(frozen=True)
class FiniteSubgroup(Subgroup):
    """Explicit closed subset of a finite group."""

    group: FiniteGroup
    members: frozenset

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

    def to_json(self) -> dict:
        return {"variant": "finite", "members": sorted(self.members)}


@dataclass(frozen=True)
class CyclicSumSubgroup(Subgroup):
    """Per-coordinate divisor subgroup of a truncated cyclic sum:
    coordinate i ranges over divisors[i] * Z_{m_i}."""

    group: CyclicSumGroup
    divisors: tuple

    def __post_init__(self):
        mods = self.group.moduli
        if len(self.divisors) != len(mods):
            raise DomainError("need one divisor per coordinate")
        for d, m in zip(self.divisors, mods):
            if d < 1 or m % d != 0:
                raise DomainError("divisor %d does not divide modulus %d" % (d, m))

    def contains(self, g: tuple) -> bool:
        return all(x % d == 0 for x, d in zip(g, self.divisors))

    def index(self) -> int:
        out = 1
        for d in self.divisors:
            out *= d
        return out

    def is_normal(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"variant": "cyclic-sum", "divisors": list(self.divisors)}


# ---------------------------------------------------------------------------
# exact integer linear algebra helpers (small dimensions)


def _det(m: tuple) -> int:
    d = len(m)
    if d == 1:
        return m[0][0]
    if d == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(d):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _solve_left(basis: tuple, g: tuple) -> Optional[tuple]:
    """Rational x with x * basis = g, or None if singular."""
    d = len(basis)
    det = _det(basis)
    if det == 0:
        return None
    # Cramer on the transposed system basis^T * x^T = g^T
    bt = tuple(tuple(basis[r][c] for r in range(d)) for c in range(d))
    out = []
    for j in range(d):
        col = tuple(tuple(g[r] if c == j else bt[r][c] for c in range(d))
                    for r in range(d))
        out.append(Fraction(_det(col), det))
    return tuple(out)


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
        out = _intersect_pair(group, out, s)
    if out.index() > bound:
        raise DomainError("intersection index %d exceeds product bound %d"
                          % (out.index(), bound))
    return out


def _intersect_pair(group: Group, a: Subgroup, b: Subgroup) -> Subgroup:
    if isinstance(group, IntegerGroup):
        return IntegerSubgroup(math.lcm(a.modulus, b.modulus))
    if isinstance(group, LatticeGroup):
        return _intersect_lattices(group.dim, a, b)
    if isinstance(group, FiniteGroup):
        return FiniteSubgroup(group, a.members & b.members)
    if isinstance(group, CyclicSumGroup):
        # d*Z_m has index d; da and db both divide m, so lcm(da, db) does
        # too and generates the intersection
        return CyclicSumSubgroup(group, tuple(
            math.lcm(da, db) for da, db in zip(a.divisors, b.divisors)))
    raise DomainError("no intersection for variant %r" % group.variant)


def _intersect_lattices(dim: int, a: LatticeSubgroup,
                        b: LatticeSubgroup) -> LatticeSubgroup:
    """Dual trick: the dual of the intersection is the sum of the duals,
    and lattice sums reduce to a Hermite normal form."""
    dual_a = _inv_transpose(a.basis)
    dual_b = _inv_transpose(b.basis)
    scale = 1
    for row in dual_a + dual_b:
        for entry in row:
            scale = math.lcm(scale, entry.denominator)
    int_rows = [tuple(int(entry * scale) for entry in row)
                for row in dual_a + dual_b]
    summed = _hnf_rows(int_rows, dim)  # basis of scale * (dual_a + dual_b)
    back = _inv_transpose(summed)      # dual of the scaled sum
    rows = []
    for row in back:
        out_row = []
        for entry in row:
            value = entry * scale
            if value.denominator != 1:
                raise DomainError("lattice duality produced a non-integer "
                                  "entry; inputs were not finite index")
            out_row.append(int(value))
        rows.append(tuple(out_row))
    return LatticeSubgroup(_hnf_rows(rows, dim))


def _inv_transpose(m: Sequence[Sequence[int]]) -> tuple:
    """(m^T)^{-1} as Fraction rows, by Gauss elimination."""
    d = len(m)
    work = [[Fraction(m[c][r]) for c in range(d)] for r in range(d)]
    aug = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if work[r][col] != 0), None)
        if pivot is None:
            raise DomainError("singular basis matrix")
        work[col], work[pivot] = work[pivot], work[col]
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(d):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row) for row in aug)


def normal_core(group: Group, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup contained in ``sub``.

    Abelian variants return the subgroup unchanged; finite groups
    intersect all conjugates (a finite transversal suffices, and the
    full element list is one)."""
    _check_pair(group, sub)
    if isinstance(group, (IntegerGroup, LatticeGroup, CyclicSumGroup)):
        return sub
    if isinstance(group, FiniteGroup):
        core = set(sub.members)
        for t in group.elements():
            conj = {group.multiply(group.multiply(group.inverse(t), a), t)
                    for a in sub.members}
            core &= conj
        result = FiniteSubgroup(group, frozenset(core))
        if not result.is_normal():
            raise DomainError("core of %r is not normal (table inconsistent?)"
                              % (sub,))
        return result
    raise DomainError("no normal core for variant %r" % group.variant)


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
    return ElementSet(frozenset(g for g in cube if sub.contains(g)), None)


def generation_check(group: Group, sub: Subgroup, n_max: int,
                     extra: Iterable = ()) -> Verdict:
    """Is every ball slice of the subgroup a product of induced
    generators?  Checks ball(n) cap sub inside psi^n for n <= n_max,
    where psi is the induced generating set."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
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
                     radius: int, slack: int = 2) -> Verdict:
    """Do products of ``gens`` reach every subgroup element in the
    radius ball?  Exploration is allowed up to slack * radius."""
    target = {g for g in ball(group, radius) if sub.contains(g)}
    limit = slack * radius
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
    ok = ((isinstance(group, IntegerGroup) and isinstance(sub, IntegerSubgroup))
          or (isinstance(group, LatticeGroup) and isinstance(sub, LatticeSubgroup))
          or (isinstance(group, FiniteGroup) and isinstance(sub, FiniteSubgroup))
          or (isinstance(group, CyclicSumGroup)
              and isinstance(sub, CyclicSumSubgroup)))
    if not ok:
        raise DomainError("subgroup type %s does not match group variant %r"
                          % (type(sub).__name__, group.variant))


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


def _group_from_perms(perms: Iterable[tuple], label: str,
                      generators: Optional[Iterable[tuple]] = None) -> FiniteGroup:
    perms = sorted(set(perms))
    names = {p: _perm_name(p) for p in perms}
    table = {}
    for a in perms:
        for b in perms:
            c = tuple(a[b[i]] for i in range(len(a)))
            table[(names[a], names[b])] = names[c]
    ident = tuple(range(len(perms[0])))
    gen_names = None
    if generators is not None:
        gen_names = [names[g] for g in generators]
    return FiniteGroup([names[p] for p in perms], table, names[ident],
                       generators=gen_names, label=label)


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
    """Every subgroup, by closing subsets one generator at a time."""
    e = group.identity
    trivial = frozenset([e])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            for g in group.elements():
                if g in h:
                    continue
                closure = _close(group, h | {g})
                if closure not in found:
                    found.add(closure)
                    nxt.append(closure)
        frontier = nxt
    return [FiniteSubgroup(group, h)
            for h in sorted(found, key=lambda s: (len(s), sorted(s)))]


def _close(group: FiniteGroup, seed: frozenset) -> frozenset:
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
