"""Word metrics, balls, cones, and window probes, checked against
breadth-first search and enumeration oracles."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerodim import groups
from zerodim.errors import (DomainError, PreconditionError, RangeError,
                            ResourceCapError)
from zerodim.flows import McMahonGroup, TwoCopyGroup
from zerodim.groups import (STABLE_RUN, ConeApproximation,
                            CyclicSumGroup, ElementSet, FiniteGroup,
                            FreeGroupVariant, IntegerGroup, LatticeGroup,
                            _ball_layers, _cone_member, _layer,
                            _sorted_view,
                            affine_sequence, ball, cone_approx, cone_layer,
                            explicit_sequence, is_syndetic_window, is_thick_window,
                            layer_embedding_bound, layer_embedding_check,
                            power_set, sphere, word_length)
from zerodim.subgroups import symmetric_group

Z = IntegerGroup()
Z2 = LatticeGroup(2)
Z3 = LatticeGroup(3)
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

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 100)
        with pytest.raises(ResourceCapError):
            ball(LatticeGroup(2), 40)

    def test_power_set_contains_identity(self):
        assert Z.identity in power_set(Z, 3)
        assert Z.identity not in ball(Z, 3)

    def test_negative_radius_rejected(self):
        for fn, what in ((ball, "ball"), (sphere, "sphere"),
                         (power_set, "ball")):
            with pytest.raises(PreconditionError,
                               match="^%s radius must be >= 0$" % what):
                fn(Z, -1)

    # a radius is an exact non-negative int; views are keyed by it

    def test_fractional_ball_radius_rejected(self):
        # it was the radius-2 ball tagged radius=2.5
        with pytest.raises(PreconditionError, match="must be an int"):
            ball(IntegerGroup(), 2.5)

    def test_fractional_sphere_radius_rejected(self):
        # it was an empty set
        with pytest.raises(PreconditionError, match="must be an int"):
            sphere(IntegerGroup(), 2.5)

    def test_integral_float_radius_rejected(self):
        # it was a bare TypeError from indexing the layers
        for fn in (ball, sphere, power_set):
            with pytest.raises(PreconditionError, match="must be an int"):
                fn(IntegerGroup(), 2.0)

    def test_bool_radius_rejected(self):
        # True was the radius-1 ball, and as a key it would alias 1
        for fn in (ball, sphere, power_set):
            with pytest.raises(PreconditionError, match="must be an int"):
                fn(IntegerGroup(), True)

    def test_cone_approx_bool_radius_rejected(self):
        with pytest.raises(PreconditionError, match="must be an int"):
            cone_approx(IntegerGroup(), affine_sequence(1), True)

    def test_cone_approx_float_radius_rejected(self):
        with pytest.raises(PreconditionError, match="must be an int"):
            cone_approx(IntegerGroup(), affine_sequence(1), 2.0)

    # so are sequence steps, offsets and the index cap

    def test_fractional_affine_step_rejected(self):
        # it reached cone_approx and raised a bare TypeError
        with pytest.raises(PreconditionError, match="int or a tuple of ints"):
            affine_sequence(1.5)
        with pytest.raises(PreconditionError, match="int or a tuple of ints"):
            affine_sequence((1, 0.5))

    def test_bool_affine_step_rejected(self):
        # it was the step 1
        with pytest.raises(PreconditionError, match="int or a tuple of ints"):
            affine_sequence(True)
        with pytest.raises(PreconditionError, match="int or a tuple of ints"):
            affine_sequence((True, 0))

    def test_bool_affine_offset_rejected(self):
        # it was the offset 1
        with pytest.raises(PreconditionError, match="int or a tuple of ints"):
            affine_sequence(2, offset=True)
        with pytest.raises(PreconditionError, match="int or a tuple of ints"):
            affine_sequence((1, 0), offset=(0, False))

    def test_affine_offset_shape_must_match_the_step(self):
        for step, offset in ((1, (0, 1)), ((1, 0), 1), ((1, 0), (0, 0, 1))):
            with pytest.raises(PreconditionError, match="does not match"):
                affine_sequence(step, offset)
        assert affine_sequence((1, 0), (0, 2)).element(Z2, 3) == (3, 2)
        assert affine_sequence(-2, 1).element(Z, 3) == -5

    def test_cone_approx_bool_max_index_rejected(self):
        # it was max_index 1
        for max_index in (True, 2.0):
            with pytest.raises(PreconditionError, match="max_index must be"):
                cone_approx(IntegerGroup(), affine_sequence(1), 4,
                            max_index=max_index)


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

    def test_each_view_is_built_once(self):
        F = FreeGroupVariant(2)
        for fn in (ball, sphere, power_set):
            assert fn(F, 8) is fn(F, 8)
            assert fn(F, 3) is fn(F, 3) is not fn(F, 8)
        assert ball(F, 8) is not power_set(F, 8)
        assert ball(F, 0) is not sphere(F, 0) is not power_set(F, 0)

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
        assert power_set(warm, radius) == power_set(make(), radius)
        assert power_set(warm, radius).elements == \
            ball(warm, radius).elements | {warm.identity}

    @PROPERTY
    @given(st.integers(1, 6), st.integers(0, 8))
    def test_cap_boundary_ignores_history(self, radius, warm_radius):
        size = len(bfs_lengths(Z2, radius))  # |B(radius)|, identity included
        cold, warm = LatticeGroup(2), LatticeGroup(2)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groups, "DEFAULT_BALL_CAP", size - 1)
            # views below the radius, built under the same cap
            for r in range(min(warm_radius, radius - 1) + 1):
                for fn in (ball, sphere, power_set):
                    fn(warm, r)
            for group in (cold, warm):
                for fn in (ball, sphere, power_set):
                    with pytest.raises(ResourceCapError):
                        fn(group, radius)
                with pytest.raises(ResourceCapError):
                    word_length(group, (radius, 0), method="bfs")
            # after a cap error the same instance answers once it fits
            m.setattr(groups, "DEFAULT_BALL_CAP", size)
            for group in (cold, warm):
                assert len(ball(group, radius)) == size - 1
                assert len(power_set(group, radius)) == size
                assert len(sphere(group, radius)) == 4 * radius
                assert word_length(group, (radius, 0),
                                   method="bfs") == radius

    @PROPERTY
    @given(st.sampled_from(sorted(CLOSED_FORM_CASES)),
           st.lists(st.tuples(st.sampled_from(("ball", "sphere", "power")),
                              st.integers(0, 5)), min_size=1, max_size=10))
    def test_views_equal_the_layers_in_any_call_order(self, name, calls):
        group = CLOSED_FORM_CASES[name][0]()
        fns = {"ball": ball, "sphere": sphere, "power": power_set}
        for kind, radius in calls:
            view = fns[kind](group, radius)
            if kind == "sphere":
                want = frozenset(_layer(group, radius))
            else:
                layers = _ball_layers(group, radius)
                want = frozenset(itertools.chain.from_iterable(
                    layers if kind == "power" else layers[1:]))
            assert view.elements == want
            assert view == ElementSet(want)

    def test_identity_alone_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 0)
        assert len(ball(IntegerGroup(), 0)) == 0
        assert word_length(IntegerGroup(), 0, method="bfs") == 0

    def test_finite_group_search_is_exhausted(self):
        G = CyclicSumGroup((0,), 5)
        assert len(ball(G, 10)) == 4
        assert len(sphere(G, 3)) == 0
        # Z/4 generated by its square reaches only {0, 2}
        class Half(FiniteGroup):
            def generators(self):
                return ("0", "2")

        names = ("0", "1", "2", "3")
        table = {(a, b): str((int(a) + int(b)) % 4)
                 for a in names for b in names}
        half = Half(names, table, "0")
        assert word_length(half, "2") == 1
        with pytest.raises(RangeError):
            word_length(half, "1")

    def test_finite_group_names_a_missing_key(self):
        names = ("0", "1")
        table = {(a, b): str((int(a) + int(b)) % 2)
                 for a in names for b in names}
        del table["1", "0"]
        with pytest.raises(DomainError, match=r"no entry for \('1', '0'\)"):
            FiniteGroup(names, table, "0")

    @PROPERTY
    @given(st.lists(st.integers(0, 9), max_size=4))
    def test_two_copy_and_mcmahon_lengths(self, picks):
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


# the earlier bodies of the cone helpers, which built each cone layer in
# full; they are the oracles of the membership-test versions


def reference_cone_approx(group, seq, radius, max_index=40):
    max_index = seq.max_index(max_index)
    B = ball(group, radius)
    history = []
    prev_len = -1
    for n in range(1, max_index + 1):
        g = seq.element(group, n)
        group.validate(g)
        glen = word_length(group, g)
        if glen <= prev_len:
            raise PreconditionError("lengths must increase")
        prev_len = glen
        if glen == 0:
            raise PreconditionError("identity")
        layer = cone_layer(group, g)
        history.append(frozenset(x for x in B if x in layer))
    tail = 1
    while tail < len(history) and history[-tail - 1] == history[-1]:
        tail += 1
    stabilized = tail >= STABLE_RUN
    return ConeApproximation(
        radius=radius, elements=history[-1], stabilized=stabilized,
        stabilization_index=len(history) - tail + 1 if stabilized else None,
        examined=max_index, tail_run=tail)


def reference_layer_embedding_check(group, finite_set, length, g):
    layer = cone_layer(group, g)
    fs = list(finite_set)
    for t in sphere(group, length).sorted(group):
        if all(group.multiply(f, t) in layer for f in fs):
            return t
    return None


def reference_layer_embedding_bound(group, finite_set, g_bound, n_max=8):
    fs = sorted(set(finite_set), key=group.sort_key)
    pool = ball(group, g_bound).sorted(group)
    params = {"g_bound": g_bound, "n_max": n_max, "set_size": len(fs)}
    for n in range(1, n_max + 1):
        witnesses = {}
        ok = True
        for g in pool:
            if not n <= word_length(group, g) <= g_bound:
                continue
            t = reference_layer_embedding_check(group, fs, n, g)
            if t is None:
                ok = False
                break
            witnesses[group.format_element(g)] = group.format_element(t)
        if ok and witnesses:
            return {"status": "holds", "bound": n,
                    "examined": len(witnesses), "params": params}
    return {"status": "fails", "no_bound_up_to": n_max, "params": params}


# fresh instances, with the largest |g| whose B(2|g|-1) stays small; the
# last two have no closed form, so their cones go through the search
CONE_GROUPS = {
    "Z": (IntegerGroup, 4),
    "Z2": (lambda: LatticeGroup(2), 3),
    "Z3": (lambda: LatticeGroup(3), 3),
    "F2": (lambda: FreeGroupVariant(2), 3),
    "cyclic-sum": (lambda: CyclicSumGroup.symmetric(2, 5), 3),
    "mcmahon": (lambda: McMahonGroup(2), 3),
    "S3": (lambda: symmetric_group(3), 1),
    "two-copy": (lambda: TwoCopyGroup(1), 3),
}


# the variants whose cones cone_approx lists in closed form
CLOSED_CONES = ("Z", "Z2", "Z3")


def draw_element(data, group, length):
    return data.draw(st.sampled_from(sphere(group, length).sorted(group)))


class TestConeMembership:
    """``_cone_member`` decides ``x in cone_layer(group, g)`` by one
    word-length test, without building the layer."""

    @PROPERTY
    @given(st.data())
    def test_agrees_with_the_built_layer(self, data):
        name = data.draw(st.sampled_from(sorted(CONE_GROUPS)))
        make, longest = CONE_GROUPS[name]
        ref = make()
        n = data.draw(st.integers(1, longest))
        g = draw_element(data, ref, n)
        # a fresh instance whose search holds no more than |g| needs
        member = _cone_member(make(), g)
        window = power_set(ref, 2 * n - 1)
        got = {x for x in window if member(x)}
        assert got == set(cone_layer(ref, g).elements)

    def test_identity_and_cap(self, monkeypatch):
        with pytest.raises(PreconditionError):
            _cone_member(Z, 0)
        # the search path keeps word_length's cap rule for |g|
        two = TwoCopyGroup(1)
        g = sphere(TwoCopyGroup(1), 3).sorted(two)[0]
        size = len(power_set(TwoCopyGroup(1), 3))
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", size - 1)
        with pytest.raises(ResourceCapError):
            _cone_member(two, g)
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", size)
        assert _cone_member(two, g)(g)

    @PROPERTY
    @given(st.data())
    def test_cone_approx_matches_the_oracle(self, data):
        name = data.draw(st.sampled_from(sorted(CONE_GROUPS)))
        make, longest = CONE_GROUPS[name]
        group = make()
        lengths = data.draw(st.lists(st.integers(1, 2 * longest),
                                     min_size=1, max_size=5, unique=True))
        lengths = [k for k in sorted(lengths) if sphere(group, k)]
        if not lengths:
            lengths = [1]
        seq = explicit_sequence(draw_element(data, group, k)
                                for k in lengths)
        # the closed-form cones also take radii past every 2|g|-1
        top = 2 * lengths[-1] if name in CLOSED_CONES else 3
        radius = data.draw(st.integers(0, top))
        assert cone_approx(make(), seq, radius) == \
            reference_cone_approx(group, seq, radius)

    @pytest.mark.parametrize("group, seq, radius, max_index", [
        (Z, affine_sequence(1), 50, 40),
        (Z, affine_sequence(-5), 12, 40),
        (Z, affine_sequence(2, offset=1), 20, 60),
        (Z, explicit_sequence([2, -5, 11, -23, 47]), 10, 40),
        (Z, affine_sequence(-3, -1), 30, 8),
        (Z2, affine_sequence((1, -2)), 4, 7),
        (Z2, affine_sequence((0, 1)), 3, 6),
        (Z2, affine_sequence((0, -3)), 9, 5),
        (Z2, affine_sequence((-2, 1), (1, 0)), 11, 5),
        (Z3, affine_sequence((1, -1, 2)), 13, 5),
        (Z3, affine_sequence((0, 0, -1)), 6, 8),
        (Z3, explicit_sequence([(0, 1, 0), (-2, 0, 0), (0, 0, 3),
                                (1, -3, 1)]), 11, 40),
        (F2, explicit_sequence([(1, 2) * k for k in range(1, 5)]), 3, 40),
    ], ids=str)
    def test_cone_approx_matches_the_oracle_on_sequences(self, group, seq,
                                                         radius, max_index):
        assert cone_approx(group, seq, radius, max_index) == \
            reference_cone_approx(group, seq, radius, max_index)

    @pytest.mark.parametrize("name", sorted(CLOSED_CONES))
    def test_cone_members_is_the_ball_part_of_the_layer(self, name):
        # every g with |g| <= 3, on an axis or off it and with every
        # sign pattern, and radii 0 .. 2|g|+1, past the cone's reach
        make, _ = CONE_GROUPS[name]
        group = make()
        for n in range(1, 4):
            for g in sphere(group, n):
                layer = cone_layer(group, g).elements
                for radius in range(2 * n + 2):
                    want = frozenset(x for x in ball(group, radius)
                                     if x in layer)
                    assert frozenset(group.cone_members(g, radius)) == want

    @pytest.mark.parametrize("group, g", [
        (IntegerGroup(), 0), (LatticeGroup(2), (0, 0))])
    def test_cone_members_undefined_at_the_identity(self, group, g):
        with pytest.raises(PreconditionError, match="identity"):
            group.cone_members(g, 3)

    def test_cone_approx_tests_the_ball_once_per_index(self):
        Zc = counting(IntegerGroup)()
        a = cone_approx(Zc, affine_sequence(5), 50)
        assert a.stabilized and a.elements == frozenset(range(1, 51))
        # 198 products grow the search through radius 50 for the ball's
        # cap check, and each index's cone is an interval read in closed
        # form; the ball filter made 4,198, reference_cone_approx 8,954
        assert Zc.multiplies == 198

    def test_long_free_cone_builds_no_shell(self):
        # the last cone layer here is the radius-10 shell, 118,097
        # words; the test reads only the radius-3 ball
        F = counting(FreeGroupVariant)(2)
        seq = explicit_sequence([(1,) * n for n in range(1, 12)])
        a = cone_approx(F, seq, 3)
        assert a.elements == frozenset({(1,), (1, 1), (1, 1, 1), (2, 1, 1),
                                        (-2, 1, 1)})
        assert (a.stabilized, a.stabilization_index, a.tail_run) == \
            (True, 2, 10)
        assert F.multiplies == 4 * (1 + 4 + 12) + 11 * 52

    @pytest.mark.parametrize("name", sorted(CONE_GROUPS))
    def test_layer_embedding_check_reads_the_layer_in_sort_order(self, name):
        # every length and finite set that fits the window, including
        # those whose witness is not the first element of the sphere
        make, longest = CONE_GROUPS[name]
        group = make()
        g = sphere(group, longest).sorted(group)[-1]
        for length in range(0, 4):
            for fs in itertools.combinations(power_set(group, 1)
                                             .sorted(group), 2):
                assert layer_embedding_check(group, fs, length, g) == \
                    reference_layer_embedding_check(group, fs, length, g)

    def test_layer_embedding_check_length_is_an_exact_int(self):
        with pytest.raises(PreconditionError, match="must be >= 0"):
            layer_embedding_check(Z, [0], -1, 3)
        with pytest.raises(PreconditionError, match="must be an int"):
            layer_embedding_check(Z, [0], 1.0, 3)

    @PROPERTY
    @given(st.data())
    def test_layer_embedding_check_matches_the_oracle(self, data):
        name = data.draw(st.sampled_from(sorted(CONE_GROUPS)))
        make, longest = CONE_GROUPS[name]
        group = make()
        g = draw_element(data, group, data.draw(st.integers(1, longest)))
        fs = data.draw(st.lists(st.sampled_from(power_set(group, 1)
                                                .sorted(group)),
                                min_size=1, max_size=3))
        length = data.draw(st.integers(0, 3))
        assert layer_embedding_check(make(), fs, length, g) == \
            reference_layer_embedding_check(group, fs, length, g)

    @pytest.mark.parametrize("group, fs, g_bound, n_max", [
        (Z, [0, 1, 2], 12, 8),
        (Z, [0, 3, 4], 12, 8),
        (Z, [-1, 0, 1], 10, 8),
        (Z, [0, 5], 6, 3),
        (Z2, [(0, 0), (1, 0)], 4, 4),
        (F2, [(), (1,)], 3, 3),
    ], ids=str)
    def test_layer_embedding_bound_matches_the_oracle(self, group, fs,
                                                      g_bound, n_max):
        v = layer_embedding_bound(group, fs, g_bound, n_max)
        want = reference_layer_embedding_bound(group, fs, g_bound, n_max)
        assert v.params == want["params"]
        if want["status"] == "holds":
            assert v.holds and v.certificate == {
                "bound": want["bound"], "examined": want["examined"]}
        else:
            assert v.fails and v.certificate == {
                "no_bound_up_to": want["no_bound_up_to"]}

    @pytest.mark.parametrize("bad, message", [
        (True, "n_max must be an int, got True"),
        (0, "n_max must be >= 1"),
        (8.0, "n_max must be an int, got 8.0"),
    ], ids=repr)
    def test_layer_embedding_bound_n_max_is_an_exact_int(self, bad,
                                                         message):
        # True ran as 1 and wrote true into the certificate, 0 gave a
        # FAILS from an empty search, 8.0 escaped as a TypeError
        with pytest.raises(PreconditionError, match=message):
            layer_embedding_bound(Z, [0, 1], 6, bad)

    @pytest.mark.parametrize("bad, message", [
        (True, "g_bound must be an int, got True"),
        (2.5, "g_bound must be an int, got 2.5"),
        ("3", "g_bound must be an int, got '3'"),
        (-1, "g_bound must be >= 0"),
    ], ids=repr)
    def test_layer_embedding_bound_g_bound_is_an_exact_int(self, bad,
                                                           message):
        with pytest.raises(PreconditionError, match=message):
            layer_embedding_bound(Z, [0, 1], bad)

    @pytest.mark.parametrize("make, fs, g, message", [
        (lambda: Z2, [(1,)], (2, 0),
         "lattice element must be an int 2-tuple"),
        (lambda: symmetric_group(3), ["e", "nope"], "(12)",
         "unknown element 'nope'"),
        (lambda: Z, [0, 1.5], 3, "must be int, got 1.5"),
        (lambda: Z, [True], 3, "must be int, got True"),
    ], ids=["short-lattice-tuple", "S3-name", "float", "bool"])
    def test_layer_embedding_rejects_non_elements(self, make, fs, g,
                                                  message):
        # the short tuple zipped into a witness (1, 0), "nope" escaped
        # as a KeyError, and 1.5 and True were searched as integers
        with pytest.raises(RangeError, match=message):
            layer_embedding_check(make(), fs, 1, g)
        with pytest.raises(RangeError, match=message):
            layer_embedding_bound(make(), fs, 2)

    @PROPERTY
    @given(step=st.integers(1, 9), sign=st.sampled_from((1, -1)),
           offset=st.integers(-5, 5), radius=st.integers(1, 80),
           max_index=st.integers(1, 40))
    def test_integer_cone_approx_matches_the_oracle(self, step, sign, offset,
                                                    radius, max_index):
        # the interval entries against cone layers built in full; an
        # offset can make the lengths fall or pass through 0, and then
        # both must raise the same error
        seq = affine_sequence(sign * step, offset)

        def outcome(fn):
            try:
                return fn(IntegerGroup(), seq, radius, max_index)
            except PreconditionError as exc:
                return type(exc)

        got = outcome(cone_approx)
        assert got == outcome(reference_cone_approx)
        if got is not PreconditionError:
            assert type(got.elements) is frozenset


# the generator-expression bodies of the lattice kernels, the oracles
# of their map forms
def old_lattice_multiply(a, b):
    return tuple(x + y for x, y in zip(a, b))


def old_lattice_inverse(a):
    return tuple(-x for x in a)


def old_lattice_sort_key(g):
    return (sum(abs(x) for x in g), tuple(-x for x in g))


def old_lattice_length(g):
    return sum(abs(x) for x in g)


class TestLatticeKernels:
    @PROPERTY
    @given(st.data())
    def test_kernels_match_the_generator_forms(self, data):
        dim = data.draw(st.integers(1, 4))
        group = LatticeGroup(dim)
        vector = st.tuples(*[st.integers()] * dim)
        a, b = data.draw(vector), data.draw(vector)
        assert group.multiply(a, b) == old_lattice_multiply(a, b)
        assert group.inverse(a) == old_lattice_inverse(a)
        assert group.sort_key(a) == old_lattice_sort_key(a)
        assert group.closed_form_length(a) == old_lattice_length(a)
        assert all(type(x) is int
                   for x in group.multiply(a, b) + group.inverse(a))


# the per-letter pair form of the free-group key, the oracle of its
# flat integer form
def old_free_sort_key(g):
    return (len(g), tuple((abs(x), x < 0) for x in g))


class TestFreeSortKey:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_orders_reduced_words_as_the_pair_key(self, data):
        rank = data.draw(st.integers(1, 3))
        group = FreeGroupVariant(rank)
        letters = [x for x in range(-rank, rank + 1) if x]
        word = st.lists(st.sampled_from(letters), max_size=8).map(
            lambda w: group.multiply((), tuple(w)))
        a, b = data.draw(word), data.draw(word)
        new, old = group.sort_key(a), group.sort_key(b)
        assert (new < old) == (old_free_sort_key(a) < old_free_sort_key(b))
        assert (new == old) == (a == b)
        assert all(type(x) is int for x in new)

    @pytest.mark.parametrize("kind, fn", [("ball", ball),
                                          ("power", power_set)])
    def test_sorted_views_follow_the_pair_key(self, kind, fn):
        group = FreeGroupVariant(2)
        for radius in range(5):
            assert list(_sorted_view(group, kind, radius)) == sorted(
                fn(group, radius), key=old_free_sort_key)

    def test_sphere_search_peaks_near_what_it_keeps(self):
        # a layer's keys live only while it is sorted; with one pair per
        # letter in them the peak was 2.65 times the memory kept
        tracemalloc.start()
        try:
            group = FreeGroupVariant(2)
            sphere(group, 8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * kept


SORTED_VIEW_GROUPS = {
    "Z": IntegerGroup,
    "Z2": lambda: LatticeGroup(2),
    "Z3": lambda: LatticeGroup(3),
    "F2": lambda: FreeGroupVariant(2),
    "cyclic-sum": lambda: CyclicSumGroup.symmetric(2, 5),
    "S3": lambda: symmetric_group(3),
    "two-copy": lambda: TwoCopyGroup(1),
}


class TestSortedViews:
    """The window helpers read each ball and power set in sort_key
    order from a tuple sorted once per instance and radius."""

    @pytest.mark.parametrize("kind, fn", [("ball", ball),
                                          ("power", power_set)])
    @pytest.mark.parametrize("name", sorted(SORTED_VIEW_GROUPS))
    def test_view_is_the_set_in_sort_order_and_built_once(self, name, kind,
                                                          fn):
        group = SORTED_VIEW_GROUPS[name]()
        for radius in range(4):
            view = _sorted_view(group, kind, radius)
            assert type(view) is tuple
            assert list(view) == sorted(fn(group, radius),
                                        key=group.sort_key)
            assert _sorted_view(group, kind, radius) is view

    @pytest.mark.parametrize("kind", ["ball", "power"])
    @pytest.mark.parametrize("name", sorted(SORTED_VIEW_GROUPS))
    def test_cap_is_checked_on_every_call(self, name, kind, monkeypatch):
        make = SORTED_VIEW_GROUPS[name]
        sizes = [len(power_set(make(), radius)) for radius in range(4)]
        for radius in range(1, 4):
            group = make()
            tight = sizes[radius] - 1
            monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", tight)
            # one below the closed ball raises, twice in a row, before
            # and after the view of the largest smaller radius that fits
            # (an exhausted group's ball stops growing) was built
            smaller = max(r for r in range(radius) if sizes[r] <= tight)
            for built in (smaller, None):
                for _ in range(2):
                    with pytest.raises(ResourceCapError):
                        _sorted_view(group, kind, radius)
                if built is not None:
                    _sorted_view(group, kind, built)
