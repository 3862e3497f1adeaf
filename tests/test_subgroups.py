"""Finite-index subgroup machinery.  Enumeration is cross-checked with a
brute-force all-subsets oracle on groups small enough to allow it."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerodim.errors import DomainError, PreconditionError, RangeError
from zerodim.groups import (CyclicSumGroup, FiniteGroup, IntegerGroup,
                            LatticeGroup)
from zerodim.subgroups import (CyclicSumSubgroup, FiniteSubgroup,
                               IntegerSubgroup, LatticeSubgroup,
                               all_subgroups, cyclic_group, dihedral_group,
                               generates_within, generation_check,
                               induced_generating_set, intersect_subgroups,
                               normal_core, subgroup_index, symmetric_group)
from zerodim.subgroups import _close, _hnf_rows

Z = IntegerGroup()
Z2 = LatticeGroup(2)


def subsets_closed_oracle(group):
    """Every subgroup of a small finite group, found by testing all
    subsets containing the identity for closure.  Exponential, so only
    usable up to order ~10."""
    names = [n for n in group.elements() if n != group.identity]
    out = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            h = frozenset(combo) | {group.identity}
            closed = all(group.multiply(a, b) in h
                         for a in h for b in h)
            if closed and all(group.inverse(a) in h for a in h):
                out.append(h)
    return set(out)


class TestEnumeration:
    def test_small_groups_match_subset_oracle(self):
        for group in (symmetric_group(3), dihedral_group(4),
                      cyclic_group(6), cyclic_group(8)):
            oracle = subsets_closed_oracle(group)
            found = {s.members for s in all_subgroups(group)}
            assert found == oracle

    def test_s4_census_by_order(self):
        subs = all_subgroups(symmetric_group(4))
        by_order = {}
        for s in subs:
            by_order[len(s.members)] = by_order.get(len(s.members), 0) + 1
        assert by_order == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
        assert len(subs) == 30

    def test_lagrange(self):
        for group in (symmetric_group(4), dihedral_group(4)):
            for s in all_subgroups(group):
                assert group.order() % len(s.members) == 0
                assert subgroup_index(group, s) * len(s.members) == group.order()

    def test_normal_counts(self):
        s3 = symmetric_group(3)
        assert sum(1 for s in all_subgroups(s3) if s.is_normal()) == 3
        d4 = dihedral_group(4)
        assert sum(1 for s in all_subgroups(d4) if s.is_normal()) == 6


def pairwise_closure(group, seed):
    """Oracle: the subgroup closure as first written: add inverses, then
    multiply every pair of found elements until a round adds nothing."""
    out = set(seed) | {group.identity}
    out |= {group.inverse(a) for a in out}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(out), repeat=2):
            c = group.multiply(a, b)
            if c not in out:
                out.add(c)
                changed = True
    return frozenset(out)


CLOSURE_GROUPS = (symmetric_group(4), dihedral_group(4), cyclic_group(1),
                  cyclic_group(7), cyclic_group(12))


class TestClosure:
    @given(st.sampled_from(CLOSURE_GROUPS).flatmap(
        lambda g: st.tuples(st.just(g), st.frozensets(
            st.sampled_from(g.elements()), max_size=4))))
    @settings(max_examples=300)
    def test_matches_pairwise_closure(self, case):
        group, seed = case
        assert _close(group, seed) == pairwise_closure(group, seed)

    def test_s4_census_multiplies(self, monkeypatch):
        # |h| products to skip a right coset, then |closure| * |seed|
        # per closure of gens(h) + (g,); closing h | {g} for every g
        # outside h made 53,189, and the pairwise rounds 333,053, for
        # the same 30 subgroups
        calls = []
        multiply = FiniteGroup.multiply

        def counted(self, a, b):
            calls.append(None)
            return multiply(self, a, b)

        group = symmetric_group(4)
        monkeypatch.setattr(FiniteGroup, "multiply", counted)
        assert len(all_subgroups(group)) == 30
        assert len(calls) == 8_100


def every_element_subgroups(group):
    """Oracle: the earlier body of ``all_subgroups``, which closed
    h | {g} for every g outside every subgroup h found."""
    trivial = frozenset([group.identity])
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


@pytest.mark.parametrize("group", [
    symmetric_group(3), symmetric_group(4), dihedral_group(4),
    dihedral_group(5), dihedral_group(6), cyclic_group(6), cyclic_group(8),
    cyclic_group(12)], ids=lambda g: g.label)
def test_coset_skipping_census_matches_every_element_census(group):
    got = [s.members for s in all_subgroups(group)]
    assert got == [s.members for s in every_element_subgroups(group)]


class TestNormalCore:
    def conjugation_core_oracle(self, group, sub):
        core = set(sub.members)
        for t in group.elements():
            core &= {group.multiply(group.multiply(group.inverse(t), a), t)
                     for a in sub.members}
        return frozenset(core)

    def test_core_matches_conjugation_oracle(self):
        for group in (symmetric_group(3), symmetric_group(4),
                      dihedral_group(4)):
            for s in all_subgroups(group):
                core = normal_core(group, s)
                assert core.members == self.conjugation_core_oracle(group, s)
                assert core.is_normal()
                assert core.members <= s.members

    def test_core_is_largest_normal_inside(self):
        group = dihedral_group(4)
        subs = all_subgroups(group)
        for s in subs:
            core = normal_core(group, s)
            for n in subs:
                if n.is_normal() and n.members <= s.members:
                    assert n.members <= core.members

    def test_abelian_core_is_identity_map(self):
        sub = IntegerSubgroup(6)
        assert normal_core(Z, sub) is sub


class TestIntersect:
    def test_finite_pairs_exhaustive(self):
        group = symmetric_group(3)
        subs = all_subgroups(group)
        for a, b in itertools.product(subs, repeat=2):
            meet = intersect_subgroups(group, [a, b])
            assert meet.members == a.members & b.members

    def test_integer_lcm(self):
        meet = intersect_subgroups(Z, [IntegerSubgroup(4), IntegerSubgroup(6)])
        assert meet.modulus == 12
        assert meet.index() == 12

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    def test_integer_intersection_is_least_common_multiple(self, moduli):
        meet = intersect_subgroups(Z, [IntegerSubgroup(m) for m in moduli])
        least = next(n for n in itertools.count(1)
                     if all(n % m == 0 for m in moduli))
        assert meet.modulus == least

    def test_cyclic_sum_intersection_matches_members(self):
        G = CyclicSumGroup((0, 1), (12, 6))
        divisors = [(a, b) for a in (1, 2, 3, 4, 6, 12) for b in (1, 2, 3, 6)]
        elements = list(itertools.product(range(12), range(6)))
        for da, db in itertools.product(divisors, repeat=2):
            a, b = CyclicSumSubgroup(G, da), CyclicSumSubgroup(G, db)
            meet = intersect_subgroups(G, [a, b])
            assert all(meet.contains(g) == (a.contains(g) and b.contains(g))
                       for g in elements)

    def test_lattice_intersection(self):
        a = LatticeSubgroup(((2, 0), (0, 1)))
        b = LatticeSubgroup(((1, 0), (0, 3)))
        meet = intersect_subgroups(Z2, [a, b])
        assert meet.index() == 6
        assert meet.contains((2, 3)) and meet.contains((-2, 0))
        assert not meet.contains((1, 3)) and not meet.contains((2, 1))

    def test_lattice_skew_basis(self):
        a = LatticeSubgroup(((1, 1), (1, -1)))  # checkerboard, index 2
        assert a.index() == 2
        assert a.contains((3, 1)) and not a.contains((1, 0))
        meet = intersect_subgroups(Z2, [a, LatticeSubgroup(((2, 0), (0, 2)))])
        for g in itertools.product(range(-4, 5), repeat=2):
            expect = a.contains(g) and g[0] % 2 == 0 and g[1] % 2 == 0
            assert meet.contains(g) == expect

    def test_index_bound_invariant(self):
        group = symmetric_group(4)
        subs = all_subgroups(group)
        for a, b in itertools.islice(itertools.product(subs, repeat=2), 200):
            meet = intersect_subgroups(group, [a, b])
            assert meet.index() <= a.index() * b.index()

    def test_empty_list_rejected(self):
        with pytest.raises(PreconditionError):
            intersect_subgroups(Z, [])


class TestInducedGeneration:
    def test_induced_set_for_multiples(self):
        psi2 = induced_generating_set(Z, IntegerSubgroup(2))
        assert set(psi2.elements) == {-2, 0, 2}
        psi3 = induced_generating_set(Z, IntegerSubgroup(3))
        assert set(psi3.elements) == {-3, 0, 3}

    def test_generation_check_holds(self):
        for m in (2, 3):
            v = generation_check(Z, IntegerSubgroup(m), 12)
            assert v.holds
            assert v.certificate["checked_to"] == 12

    def test_generation_check_fails_when_cube_misses(self):
        # the 3-cube of {-1,0,1} never reaches a nonzero multiple of 5
        v = generation_check(Z, IntegerSubgroup(5), 6)
        assert v.fails
        assert v.certificate["counterexample"] in ("5", "-5")

    @pytest.mark.parametrize("bad, message", [
        (True, "n_max must be an int, got True"),
        (0, "n_max must be >= 1"),
        (8.0, "n_max must be an int, got 8.0"),
    ], ids=repr)
    def test_generation_check_n_max_is_an_exact_int(self, bad, message):
        # True ran as 1 and wrote true into the certificate, 8.0 escaped
        # as a TypeError
        with pytest.raises(PreconditionError, match=message):
            generation_check(Z, IntegerSubgroup(2), bad)

    def test_generates_within(self):
        psi = induced_generating_set(Z, IntegerSubgroup(2))
        v = generates_within(Z, IntegerSubgroup(2), psi, 50)
        assert v.holds
        assert v.certificate["reached"] == 50  # nonzero even |g| <= 50

    def test_extra_generator_rescues_sparse_subgroup(self):
        psi = induced_generating_set(Z, IntegerSubgroup(5), extra=(5,))
        assert 5 in psi
        v = generation_check(Z, IntegerSubgroup(5), 8, extra=(5,))
        assert v.holds


class TestValidation:
    def test_integer_subgroup_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            IntegerSubgroup(0)

    def test_lattice_rejects_singular_basis(self):
        with pytest.raises(DomainError):
            LatticeSubgroup(((1, 2), (2, 4)))

    def test_finite_rejects_unclosed_subset(self):
        group = symmetric_group(3)
        names = [n for n in group.elements() if n != group.identity]
        with pytest.raises(DomainError):
            FiniteSubgroup(group, frozenset([group.identity, names[0],
                                             names[1]]))

    def test_mismatched_pair_rejected(self):
        with pytest.raises(DomainError):
            subgroup_index(Z, LatticeSubgroup(((2,),)))

    @pytest.mark.parametrize("build, message", [
        (lambda: IntegerSubgroup(True), "modulus must be >= 1"),
        (lambda: IntegerSubgroup(2.0), "modulus must be >= 1"),
        (lambda: LatticeSubgroup(((2.0, 0), (0, 1))),
         "basis must be a square integer matrix"),
        (lambda: LatticeSubgroup(((True, 0), (0, 1))),
         "basis must be a square integer matrix"),
        (lambda: CyclicSumSubgroup(CyclicSumGroup((0, 1), (4, 6)), (2.0, 3)),
         "does not divide modulus 4"),
    ], ids=["bool-modulus", "float-modulus", "float-basis", "bool-basis",
            "float-divisor"])
    def test_parameters_must_be_exact_ints(self, build, message):
        with pytest.raises(DomainError, match=message):
            build()

    def test_lattice_element_length_must_match(self):
        with pytest.raises(RangeError):
            LatticeSubgroup(((2,),)).contains((2, 5))
        with pytest.raises(RangeError):
            LatticeSubgroup(((2, 0), (0, 1))).contains((2,))

    def test_sublattice_dimension_must_match_group(self):
        plane = LatticeSubgroup(((2, 0), (0, 1)))
        with pytest.raises(DomainError, match="does not lie in Z\\^3"):
            subgroup_index(LatticeGroup(3), plane)
        with pytest.raises(DomainError, match="does not lie in Z\\^2"):
            intersect_subgroups(Z2, [plane, LatticeSubgroup(((2,),))])

    def test_cyclic_sum_divisor_must_divide(self):
        G = CyclicSumGroup((0, 1), (4, 6))
        with pytest.raises(DomainError):
            CyclicSumSubgroup(G, (3, 2))
        sub = CyclicSumSubgroup(G, (2, 3))
        assert sub.index() == 6
        assert sub.contains((2, 3)) and not sub.contains((1, 3))

    def test_cyclic_sum_element_length_must_match(self):
        sub = CyclicSumSubgroup(CyclicSumGroup((0, 1), (4, 6)), (2, 3))
        with pytest.raises(RangeError, match="must be a 2-tuple"):
            sub.contains((2,))
        with pytest.raises(RangeError, match="must be a 2-tuple"):
            sub.contains((2, 3, 1))

    def test_cyclic_sum_moduli_must_match_group(self):
        G = CyclicSumGroup((0, 1), (4, 6))
        line = CyclicSumSubgroup(CyclicSumGroup((0,), (4,)), (2,))
        with pytest.raises(DomainError, match="does not lie in one with"):
            subgroup_index(G, line)
        with pytest.raises(DomainError, match="does not lie in one with"):
            intersect_subgroups(G, [CyclicSumSubgroup(G, (2, 3)), line])
        swapped = CyclicSumSubgroup(CyclicSumGroup((0, 1), (6, 4)), (3, 2))
        with pytest.raises(DomainError, match="does not lie in one with"):
            normal_core(G, swapped)
        assert subgroup_index(G, CyclicSumSubgroup(
            CyclicSumGroup((5, 6), (4, 6)), (2, 3))) == 6


def leibniz_det(m) -> int:
    d = len(m)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(d) for j in range(i + 1, d))
        total += (-1) ** inversions * math.prod(m[i][perm[i]]
                                                for i in range(d))
    return total


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


def _solve_left(basis: tuple, g: tuple):
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


def _inv_transpose(m) -> tuple:
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


def lattice_index(rows, dim) -> int:
    """Index of the row span in Z^dim: the gcd of the maximal minors,
    0 when the span has lower rank."""
    return reduce(math.gcd, (abs(leibniz_det(c))
                             for c in itertools.combinations(rows, dim)), 0)


@st.composite
def integer_rows(draw):
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim),
                         min_size=1, max_size=8))
    return rows, dim


@st.composite
def full_rank_pairs(draw):
    """Two full-rank bases of one dimension, and probe vectors."""
    dim = draw(st.integers(1, 5))
    square = st.tuples(*[st.tuples(*[st.integers(-9, 9)] * dim)] * dim)
    a, b = (draw(square.filter(lambda m: leibniz_det(m) != 0))
            for _ in range(2))
    probes = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * dim),
                           min_size=1, max_size=6))
    return dim, a, b, probes


class TestLatticeAlgebra:
    """Membership, index and intersection, all read from one Hermite
    normal form, against Cramer's rule, the Leibniz determinant and the
    dual-trick intersection."""

    @given(full_rank_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_oracles(self, case):
        dim, a, b, probes = case
        sa, sb = LatticeSubgroup(a), LatticeSubgroup(b)
        meet = intersect_subgroups(LatticeGroup(dim), [sa, sb])
        expect = _intersect_lattices(dim, sa, sb)
        assert meet == expect
        assert meet.to_json() == expect.to_json()
        for sub in (sa, sb, meet):
            det = leibniz_det(sub.basis)
            assert sub.index() == abs(det)
            # det * Z^d lies in the lattice, so half the probes are members
            for g in probes + [tuple(det * x for x in p) for p in probes]:
                integral = all(x.denominator == 1
                               for x in _solve_left(sub.basis, g))
                assert sub.contains(g) == integral


class TestHermiteNormalForm:
    @pytest.mark.parametrize("rows, expect", [
        ([(1, 7, 4), (7, -3, 0), (0, 9, 6)], ((10, 0, 0), (3, 3, 0),
                                              (9, 2, 2))),
        ([(12, 6, 4), (3, 9, 6), (2, 16, 14)], ((30, 0, 0), (25, 5, 0),
                                                (21, 3, 2))),
        ([(6, 0), (0, 10), (4, 4)], ((2, 0), (0, 2))),
        ([(-3, 5), (2, -7)], ((11, 0), (6, 1))),
        ([(-6,), (10,)], ((2,),)),
        ([(2, 1, 0, 3), (0, -4, 5, 1), (7, 0, 0, 2), (1, 1, 1, 1),
          (3, -2, 9, 0)], ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1))),
    ])
    def test_golden(self, rows, expect):
        assert _hnf_rows(rows, len(expect)) == expect

    @pytest.mark.parametrize("rows, dim", [([(1, 2), (2, 4)], 2),
                                           ([(1, 0, 0), (0, 1, 0)], 3)])
    def test_rank_deficient(self, rows, dim):
        with pytest.raises(DomainError,
                           match="row span does not have full rank %d" % dim):
            _hnf_rows(rows, dim)

    @given(integer_rows())
    @settings(max_examples=300)
    def test_unique_form_of_the_span(self, case):
        rows, dim = case
        index = lattice_index(rows, dim)
        if index == 0:
            with pytest.raises(DomainError):
                _hnf_rows(rows, dim)
            return
        h = _hnf_rows(rows, dim)
        for i, row in enumerate(h):
            assert row[i] > 0
            assert all(row[j] == 0 for j in range(i + 1, dim))
            assert all(0 <= row[j] < h[j][j] for j in range(i))
        for row in rows:
            assert all(x.denominator == 1 for x in _solve_left(h, row))
        for row in h:
            assert lattice_index(rows + [row], dim) == index
        assert math.prod(h[i][i] for i in range(dim)) == index

    def test_lattice_intersection_imports_no_sympy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, zerodim\n"
                "from zerodim.groups import LatticeGroup\n"
                "from zerodim.subgroups import (LatticeSubgroup,\n"
                "                               intersect_subgroups)\n"
                "meet = intersect_subgroups(LatticeGroup(2), [\n"
                "    LatticeSubgroup(((2, 0), (0, 1))),\n"
                "    LatticeSubgroup(((1, 1), (1, -1)))])\n"
                "assert meet.index() == 4, meet\n"
                "assert 'sympy' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
