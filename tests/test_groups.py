"""Word metrics, balls, cones, and window probes, checked against
breadth-first search and enumeration oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerodim.errors import (DomainError, PreconditionError, RangeError,
                            ResourceCapError)
from zerodim.groups import (ConeApproximation, CyclicSumGroup, FiniteGroup,
                            FreeGroupVariant, IntegerGroup, LatticeGroup,
                            affine_sequence, ball, cone_approx, cone_layer,
                            explicit_sequence, group_from_json,
                            is_syndetic_window, is_thick_window,
                            layer_embedding_bound, layer_embedding_check,
                            power_set, sphere, word_length)
from zerodim.subgroups import symmetric_group

Z = IntegerGroup()
Z2 = LatticeGroup(2)
F2 = FreeGroupVariant(2)


def bfs_lengths(group, radius):
    """Independent Cayley-graph distance map by plain breadth-first
    search, used as the oracle for the closed forms."""
    gens = [g for g in group.generators() if g != group.identity]
    dist = {group.identity: 0}
    frontier = [group.identity]
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for a in frontier:
            for s in gens:
                b = group.multiply(a, s)
                if b not in dist:
                    dist[b] = d
                    nxt.append(b)
        frontier = nxt
    return dist


class TestWordLength:
    def test_integers_match_bfs(self):
        oracle = bfs_lengths(Z, 20)
        for g, d in oracle.items():
            assert word_length(Z, g) == d == abs(g)
            assert word_length(Z, g, method="bfs") == d

    def test_lattice_matches_bfs(self):
        oracle = bfs_lengths(Z2, 8)
        for g, d in oracle.items():
            assert word_length(Z2, g) == d == abs(g[0]) + abs(g[1])
        assert word_length(Z2, (3, -5), method="bfs") == 8

    def test_free_group_matches_bfs(self):
        oracle = bfs_lengths(F2, 4)
        for g, d in oracle.items():
            assert word_length(F2, g) == d

    def test_method_validation(self):
        with pytest.raises(DomainError):
            word_length(Z, 3, method="guess")

    def test_identity_is_zero(self):
        for group in (Z, Z2, F2):
            assert word_length(group, group.identity) == 0

    @given(st.integers(-200, 200))
    def test_inverse_symmetric(self, n):
        assert word_length(Z, n) == word_length(Z, Z.inverse(n))

    @given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
           st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
    def test_triangle_inequality(self, g, h):
        assert word_length(Z2, Z2.multiply(g, h)) <= \
            word_length(Z2, g) + word_length(Z2, h)


class TestBalls:
    def test_ball_sizes_integers(self):
        for r in range(0, 8):
            assert len(ball(Z, r)) == 2 * r
            assert len(power_set(Z, r)) == 2 * r + 1
            assert len(sphere(Z, r)) == (2 if r > 0 else 1)

    def test_ball_sizes_lattice(self):
        # the L1 ball without the identity has 2r^2 + 2r points
        for r in range(0, 6):
            assert len(ball(Z2, r)) == 2 * r * r + 2 * r

    def test_ball_monotone(self):
        prev = set()
        for r in range(0, 7):
            cur = set(ball(Z2, r).elements)
            assert prev <= cur
            prev = cur

    def test_cap_raises(self):
        with pytest.raises(ResourceCapError):
            ball(Z2, 40, cap=100)

    def test_power_set_contains_identity(self):
        assert Z.identity in power_set(Z, 3)
        assert Z.identity not in ball(Z, 3)

    def test_negative_radius_rejected(self):
        for fn in (ball, sphere):
            with pytest.raises(PreconditionError):
                fn(Z, -1)


class TestConeLayer:
    def test_integer_layer_is_interval(self):
        # the reach set of n is the ball of radius |n|-1 around n
        for n in (1, 2, 5, -3):
            layer = set(cone_layer(Z, n).elements)
            lo, hi = sorted((n - (abs(n) - 1), n + (abs(n) - 1)))
            assert layer == set(range(lo, hi + 1))

    def test_identity_not_in_any_layer(self):
        for n in (1, 2, 5, -3):
            assert Z.identity not in cone_layer(Z, n)

    def test_layer_rejects_identity(self):
        with pytest.raises(PreconditionError):
            cone_layer(Z, 0)


class TestConeApprox:
    def test_positive_and_negative_limits(self):
        for radius in (10, 25, 50):
            pos = frozenset(range(1, radius + 1))
            neg = frozenset(range(-radius, 0))
            for step in (1, 2, 3):
                a = cone_approx(Z, affine_sequence(step), radius,
                                max_index=60)
                assert a.stabilized and a.elements == pos
                b = cone_approx(Z, affine_sequence(-step), radius,
                                max_index=60)
                assert b.stabilized and b.elements == neg

    def test_offset_does_not_change_limit(self):
        a = cone_approx(Z, affine_sequence(2, offset=1), 20, max_index=60)
        assert a.stabilized and a.elements == frozenset(range(1, 21))

    def test_alternating_sequence_never_stabilizes(self):
        seq = explicit_sequence([2, -5, 11, -23, 47])
        a = cone_approx(Z, seq, 10)
        assert not a.stabilized and a.stabilization_index is None

    def test_non_growing_sequence_rejected(self):
        with pytest.raises(PreconditionError):
            cone_approx(Z, explicit_sequence([3, 2, 5]), 5)

    def test_lattice_quarter_cone(self):
        a = cone_approx(Z2, affine_sequence((1, 0)), 8, max_index=30)
        assert a.stabilized
        expect = frozenset((x, y) for x in range(-8, 9)
                           for y in range(-8, 9)
                           if abs(x) + abs(y) <= 8 and x >= abs(y) + 1)
        assert a.elements == expect


class TestEmbedding:
    def test_translate_of_ball_into_cone(self):
        cone = cone_approx(Z, affine_sequence(1), 16, max_index=60)
        F = list(power_set(Z, 5))
        witness = next(t for t in sorted(power_set(Z, 16), key=Z.sort_key)
                       if all(f + t in cone.elements for f in F))
        assert witness == 6

    def test_layer_embedding_check(self):
        t = layer_embedding_check(Z, [0, 1, 2], 5, 12)
        assert t is not None
        layer = cone_layer(Z, 12)
        assert all(f + t in layer for f in (0, 1, 2))

    def test_layer_embedding_bound_holds(self):
        v = layer_embedding_bound(Z, [-1, 0, 1], g_bound=10, n_max=8)
        assert v.holds


class TestWindowProbes:
    def test_multiples_syndetic_not_thick(self):
        for m in (2, 3, 5):
            member = lambda g: g % m == 0
            sy = is_syndetic_window(Z, member, m, 20)
            assert sy.holds and sy.certificate["max_gap"] == m
            th = is_thick_window(Z, member, 1, 20)
            assert th.fails

    def test_cone_is_thick(self):
        cone = cone_approx(Z, affine_sequence(1), 30, max_index=60)
        th = is_thick_window(Z, cone, 4, 22)
        assert th.holds

    def test_finite_set_not_syndetic(self):
        member = lambda g: abs(g) <= 4
        sy = is_syndetic_window(Z, member, 3, 20)
        assert sy.fails

    def test_empty_candidates_inconclusive(self):
        th = is_thick_window(Z, lambda g: False, 2, 10)
        assert th.inconclusive


class TestVariants:
    def test_cyclic_sum_lengths(self):
        G = CyclicSumGroup((0, 1), (4, 3))
        # (1, 0) needs one step; (2, 0) two steps either way
        assert word_length(G, (1, 0)) == 1
        assert word_length(G, (2, 0)) == 2
        assert word_length(G, (3, 0)) == 1  # wrap backwards
        oracle = bfs_lengths(G, 10)
        for g, d in oracle.items():
            assert word_length(G, g) == d

    def test_json_round_trip(self):
        for group in (Z, Z2, F2, CyclicSumGroup((0, 1, 2), (2, 2, 3))):
            data = group.to_json()
            back = group_from_json(data)
            assert back.to_json() == data

    @pytest.mark.parametrize("bad", [["e"], {"e": 0}, "(0 1 2 3)"])
    def test_finite_group_rejects_unknown_elements(self, bad):
        # an unhashable value is an unknown element, not a TypeError
        with pytest.raises(RangeError, match="unknown element"):
            symmetric_group(3).validate(bad)

    def test_free_group_reduction(self):
        a = (1,)
        ai = F2.inverse(a)
        assert ai == (-1,)
        assert F2.multiply(a, ai) == F2.identity


class TestElementsAreExactInts:
    """A bool is an int subclass; as a group element it would pass a
    loose check and be written as "True" into a certificate."""

    C3 = CyclicSumGroup((0, 1), 3)

    @pytest.mark.parametrize("group, bad, message", [
        (Z, True, "integer group element must be int"),
        (Z, False, "integer group element must be int"),
        (Z2, True, "lattice element must be an int 2-tuple"),
        (Z2, (True, 0), "lattice element must be an int 2-tuple"),
        (Z2, (0, False), "lattice element must be an int 2-tuple"),
        (F2, True, "free group element must be a tuple"),
        (F2, (True,), "letter True outside rank 2"),
        (F2, (1, True), "letter True outside rank 2"),
        (F2, (False,), "letter False outside rank 2"),
        (C3, True, "residue 2-tuple"),
        (C3, (True, 0), "residue True out of range"),
        (C3, (0, False), "residue False out of range"),
    ], ids=lambda v: v.variant if hasattr(v, "variant") else repr(v))
    def test_bools_are_rejected(self, group, bad, message):
        with pytest.raises(RangeError, match=message):
            group.validate(bad)

    @pytest.mark.parametrize("group, good", [
        (Z, 1), (Z2, (1, 0)), (F2, (1,)), (C3, (1, 0)),
    ], ids=lambda v: v.variant if hasattr(v, "variant") else repr(v))
    def test_their_int_twins_are_accepted(self, group, good):
        group.validate(good)


def counting(cls):
    """``cls`` with a per-instance count of ``multiply`` calls."""

    class Counting(cls):
        multiplies = 0

        def multiply(self, a, b):
            self.multiplies += 1
            return super().multiply(a, b)

    return Counting


def reduced_word(letters):
    word = ()
    for x in letters:
        word = F2.multiply(word, (x,))
    return word


# fresh instances with a closed form, and element strategies for them
CLOSED_FORM_CASES = {
    "Z": (IntegerGroup, st.integers(-40, 40)),
    "Z3": (lambda: LatticeGroup(3),
           st.tuples(*[st.integers(-4, 4)] * 3)),
    "F2": (lambda: FreeGroupVariant(2),
           st.lists(st.sampled_from((1, -1, 2, -2)),
                    max_size=6).map(reduced_word)),
    "cyclic-sum": (lambda: CyclicSumGroup.symmetric(1, 5),
                   st.tuples(*[st.integers(0, 4)] * 3)),
}


PROPERTY = settings(max_examples=25, deadline=None)


class TestSharedSearch:
    """Every metric helper reads one breadth-first search per instance."""

    def test_metric_sweep_expands_each_layer_once(self):
        # the criterion-01 sweep: 882 bfs lookups reaching radius 20
        Zc, Z2c = counting(IntegerGroup)(), counting(LatticeGroup)(2)
        calls = 0
        for n in range(-20, 21):
            assert word_length(Zc, n, method="bfs") == abs(n)
            calls += 1
        for a, b in itertools.product(range(-20, 21), repeat=2):
            if abs(a) + abs(b) <= 20:
                assert word_length(Z2c, (a, b), method="bfs") == \
                    abs(a) + abs(b)
                calls += 1
        assert calls == 882
        # layer 20 comes from expanding each element of B(19) once
        assert Z2c.multiplies == 4 * (2 * 19 * 19 + 2 * 19 + 1) == 3044
        assert Zc.multiplies == 2 * (2 * 19 + 1)

    def test_repeated_ball_does_no_work(self):
        F = counting(FreeGroupVariant)(2)
        first = ball(F, 8)
        assert F.multiplies > 0
        F.multiplies = 0
        assert ball(F, 8) == first
        assert F.multiplies == 0

    def test_instances_share_no_state(self):
        Counting = counting(LatticeGroup)
        a, b = Counting(2), Counting(2)
        ball(a, 6)
        assert b.multiplies == 0
        assert ball(b, 6) == ball(a, 6)
        assert b.multiplies == a.multiplies > 0

    @PROPERTY
    @given(st.data())
    def test_bfs_matches_closed_form_in_any_call_order(self, data):
        name = data.draw(st.sampled_from(sorted(CLOSED_FORM_CASES)))
        make, elements = CLOSED_FORM_CASES[name]
        group = make()
        for g in data.draw(st.lists(elements, min_size=1, max_size=12)):
            assert word_length(group, g, method="bfs") == \
                group.closed_form_length(g)

    @PROPERTY
    @given(st.sampled_from(sorted(CLOSED_FORM_CASES)),
           st.lists(st.integers(0, 5), min_size=1, max_size=4),
           st.integers(0, 5))
    def test_warm_results_equal_fresh(self, name, warmups, radius):
        make = CLOSED_FORM_CASES[name][0]
        warm = make()
        for r in warmups:
            sphere(warm, r)
        assert ball(warm, radius) == ball(make(), radius)
        assert sphere(warm, radius) == sphere(make(), radius)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(0, 8))
    def test_cap_boundary_ignores_history(self, radius, warm_radius):
        size = len(bfs_lengths(Z2, radius))  # |B(radius)|, identity included
        cold, warm = LatticeGroup(2), LatticeGroup(2)
        ball(warm, warm_radius)
        for group in (cold, warm):
            with pytest.raises(ResourceCapError):
                ball(group, radius, cap=size - 1)
            with pytest.raises(ResourceCapError):
                word_length(group, (radius, 0), method="bfs", cap=size - 1)
        for group in (cold, warm):
            # after a cap error a large enough cap answers
            assert len(ball(group, radius, cap=size)) == size - 1
            assert word_length(group, (radius, 0), method="bfs",
                               cap=size) == radius

    def test_identity_alone_never_exceeds_cap(self):
        assert len(ball(IntegerGroup(), 0, cap=0)) == 0
        assert word_length(IntegerGroup(), 0, method="bfs", cap=0) == 0

    def test_finite_group_search_is_exhausted(self):
        G = CyclicSumGroup((0,), 5)
        assert len(ball(G, 10)) == 4
        assert len(sphere(G, 3)) == 0
        # Z/4 generated by its square reaches only {0, 2}
        names = ("0", "1", "2", "3")
        table = {(a, b): str((int(a) + int(b)) % 4)
                 for a in names for b in names}
        half = FiniteGroup(names, table, "0", generators=["2"])
        assert word_length(half, "2") == 1
        with pytest.raises(RangeError):
            word_length(half, "1")

    @PROPERTY
    @given(st.lists(st.integers(0, 9), max_size=4))
    def test_two_copy_and_mcmahon_lengths(self, picks):
        from zerodim.flows import McMahonGroup, TwoCopyGroup
        two, mc = TwoCopyGroup(2), McMahonGroup(2)
        oracle = bfs_lengths(two, 4)
        for group in (two, mc):
            gens = group.generators()
            g = group.identity
            for i in picks:
                g = group.multiply(g, gens[i % len(gens)])
            n = word_length(group, g, method="bfs")
            assert n <= len(picks)
            if group is mc:
                assert n == mc.closed_form_length(g)
            else:
                # no closed form: "auto" goes through the same search
                assert n == word_length(two, g) == oracle[g]
