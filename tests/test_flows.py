"""Concrete systems: actions, metrics, named points.  Each system is
checked against a from-scratch oracle (digit counters, popcount words,
rational rotation) rather than its own implementation."""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerodim import cantor, flows, groups
from zerodim.cantor import (Scheme, distance, make_point, periodic_tail,
                            reanchor_tail)
from zerodim.errors import (DomainError, PreconditionError, RangeError,
                            ResourceCapError)
from zerodim.flows import (LANGUAGE_CAP, CirclePoint, McMahonGroup,
                           TwoCopyGroup, _flip_coords, _tagged_distance,
                           available_systems, build_full_shift,
                           build_mcmahon, build_odometer,
                           build_successor_map, build_thue_morse,
                           build_two_copy, circle_component,
                           circle_distance, component_projection,
                           get_system, level_radius, odometer_add,
                           ring_point, shift_point, step_point,
                           substitution_factors, successor_act)
from zerodim.groups import _ball_layers, ball, power_set, word_length

BIN = Scheme("two-sided")
FULL_SHIFT = build_full_shift()


def binary_points():
    sym = st.integers(0, 1)
    tails = st.lists(sym, min_size=1, max_size=3).map(periodic_tail)
    return st.builds(
        lambda win, lo, r, l: make_point(BIN, win, r, l, lo=lo),
        st.lists(sym, min_size=0, max_size=5),
        st.integers(-3, 3),
        tails, tails)


def odometer_points():
    scheme = Scheme("one-sided", start=0, alphabet=2)
    sym = st.integers(0, 1)
    tails = st.lists(sym, min_size=1, max_size=3).map(periodic_tail)
    return st.builds(
        lambda win, r: make_point(scheme, win, r),
        st.lists(sym, min_size=0, max_size=6), tails)


def _materialize(x, upto):
    """One-sided: explicit symbols from the start through ``upto`` plus
    the right tail re-anchored past them."""
    extra = max(0, upto - x.hi)
    symbols = list(x.window)
    symbols.extend(x.right[k % len(x.right)] for k in range(extra))
    return symbols, reanchor_tail(x.right, extra)


def reference_odometer_add(scheme, n, x):
    """Oracle: materialize every digit the carry could reach, add, and
    rebuild the point through ``make_point``."""
    if n == 0:
        return x
    k, prod = 0, 1
    while prod <= abs(n):
        prod *= scheme.size(scheme.start + k)
        k += 1
    block = math.lcm(len(x.right), scheme.alphabet_period())
    count = max(x.hi - scheme.start + 1, k + 1) + block + 2
    digits, tail = _materialize(x, scheme.start + count - 1)
    carry = n
    for i in range(len(digits)):
        if carry == 0:
            break
        size = scheme.size(scheme.start + i)
        total = digits[i] + carry
        digits[i] = total % size
        carry = total // size
    if carry == 0:
        return make_point(scheme, digits, right=tail)
    anchor = scheme.start + len(digits)
    if carry > 0:
        return make_point(scheme, digits, right=0)
    maxes = tuple(scheme.size(anchor + k) - 1
                  for k in range(scheme.alphabet_period()))
    return make_point(scheme, digits, right=periodic_tail(maxes))


def reference_successor_act(n, x):
    """Oracle: materialize through the dial, turn it, and rebuild the
    point through ``make_point``."""
    bound = max(x.hi, x.lo - 1) + len(x.right) + 1
    active = [c for c in range(x.lo, bound + 1) if x.value(c) != 0]
    if not active:
        return x
    q = active[0] + 1
    symbols, tail = _materialize(x, q)
    symbols[q - x.lo] = (symbols[q - x.lo] + n) % q
    return make_point(x.scheme, symbols, right=tail)


def reference_flip_coords(y, coords):
    """Oracle: read the widened window through ``value``, flip, and
    rebuild the point through ``make_point``."""
    coords = sorted(coords)
    if not coords:
        return y
    lo = min(coords[0], y.lo)
    hi = max(coords[-1], y.hi)
    window = {c: y.value(c) for c in range(lo, hi + 1)}
    for c in coords:
        window[c] = 1 - window[c]
    return make_point(y.scheme, window,
                      right=reanchor_tail(y.right, hi - y.hi),
                      left=reanchor_tail(y.left, y.lo - lo))


def same_point(got, want):
    return got == want and hash(got) == hash(want) and \
        repr(got) == repr(want)


@st.composite
def odometer_cases(draw):
    """A point on a mixed-radix odometer scheme: 0-10 window digits and
    a tail of period 1-3 or the all-maximal tail (where carries wrap)."""
    moduli = draw(st.sampled_from([(2,), (3,), (2, 3), (3, 2, 2)]))
    scheme = build_odometer(moduli).scheme
    m = len(moduli)
    width = draw(st.integers(0, 10))
    window = [draw(st.integers(0, moduli[i % m] - 1)) for i in range(width)]
    if draw(st.booleans()):
        tail = tuple(moduli[(width + k) % m] - 1 for k in range(m))
    else:
        tail = draw(st.lists(st.integers(0, min(moduli) - 1),
                             min_size=1, max_size=3))
    return scheme, make_point(scheme, window, right=periodic_tail(tail))


def successor_points():
    scheme = Scheme("one-sided", start=2, alphabet="index")
    windows = st.integers(0, 8).flatmap(lambda width: st.tuples(*[
        st.one_of(st.just(0), st.integers(0, c - 1))
        for c in range(2, 2 + width)]))
    tails = st.lists(st.integers(0, 1), min_size=1, max_size=3)
    return st.builds(
        lambda win, tail: make_point(scheme, list(win),
                                     right=periodic_tail(tail)),
        windows, tails)


class TestRegistry:
    def test_available_systems(self):
        assert available_systems() == (
            "circle-stack", "circle-stack-components", "full-shift",
            "mcmahon", "odometer", "successor-map", "thue-morse",
            "two-copy")

    def test_unknown_system(self):
        with pytest.raises(DomainError):
            get_system("torus")

    def test_descriptions_and_json(self):
        for sid in available_systems():
            sys = get_system(sid)
            assert sid in sys.describe()


class TestFreshSystems:
    """Each catalog entry is built once per process; every
    ``get_system`` call hands out a new system over its immutable
    parts, with its own group instance and caches."""

    @pytest.mark.parametrize("sid", available_systems())
    def test_calls_give_distinct_systems_groups_and_caches(self, sid):
        a, b = get_system(sid), get_system(sid)
        assert a is not b
        assert a.group is not b.group
        assert type(a.group) is type(b.group)
        assert a._language_cache is not b._language_cache
        assert a.scheme is b.scheme
        assert a.summary == b.summary
        for name in a.point_names():
            assert a.point(name) is b.point(name)

    @pytest.mark.parametrize("sid", available_systems())
    def test_searches_and_caches_stay_with_their_system(self, sid):
        a = get_system(sid)
        ball(a.group, 2)
        words = a.language(3)
        assert "_cayley_search" in vars(a.group)
        assert (3 in a._language_cache) == (words is not None)
        b = get_system(sid)
        assert "_cayley_search" not in vars(b.group)
        assert b._language_cache == {}

    def test_patched_act_is_not_seen_by_the_next_system(self, monkeypatch):
        a = get_system("odometer")
        one = a.point("one")

        def broken(g, x):
            raise AssertionError("patched act reached")
        monkeypatch.setattr(a, "_act", broken)
        with pytest.raises(AssertionError):
            a.act(1, one)
        b = get_system("odometer")
        assert b.act(-1, one) == b.point("zero")

    def test_builder_runs_once_per_process(self, monkeypatch):
        runs = []

        def counted():
            runs.append(1)
            return build_odometer()
        monkeypatch.setitem(flows.SYSTEM_BUILDERS, "odometer", counted)
        systems = [get_system("odometer") for _ in range(3)]
        assert len(runs) == 1
        assert len({id(s) for s in systems}) == 3
        assert len({id(s.group) for s in systems}) == 3


class TestFullShift:
    @given(binary_points(), st.integers(-6, 6), st.integers(-8, 8))
    @settings(max_examples=100)
    def test_shift_semantics_and_group_law(self, x, n, j):
        shift = build_full_shift()
        assert shift.act(n, x).value(j) == x.value(j + n)
        m = 3
        assert shift.act(m, shift.act(n, x)) == shift.act(m + n, x)

    def test_language_is_everything(self):
        shift = build_full_shift()
        assert len(shift.language(3)) == 8
        assert len(shift.language(5)) == 32

    @pytest.mark.parametrize("bad", [0, -1, True, 3.0, "3"])
    def test_language_length_is_an_int_of_at_least_one(self, bad):
        with pytest.raises(PreconditionError, match="word length"):
            build_full_shift().language(bad)
        # a system with no language checks the length all the same
        with pytest.raises(PreconditionError, match="word length"):
            build_odometer().language(bad)

    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_language_cap_boundary(self, alphabet, monkeypatch):
        # shrink the cap so the boundary is cheap to reach; the check
        # must fire before anything is enumerated
        monkeypatch.setattr(flows, "LANGUAGE_CAP", alphabet ** 4)
        shift = build_full_shift(alphabet)
        assert len(shift.language(4)) == alphabet ** 4
        enumerated = []
        monkeypatch.setattr(flows.itertools, "product",
                            lambda *a, **k: enumerated.append(a) or ())
        with pytest.raises(ResourceCapError, match="over the cap"):
            shift.language(5)
        assert enumerated == []

    def test_language_cap_is_a_power_boundary(self):
        length = LANGUAGE_CAP.bit_length() - 1
        assert 2 ** length == LANGUAGE_CAP
        with pytest.raises(ResourceCapError):
            build_full_shift().language(length + 1)

    def test_uniform_recurrence_stops_at_the_cap(self, capsys):
        from zerodim.cli import main
        assert main(["analyze", "full-shift", "uniform-recurrence",
                     "--window-max", "40"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @given(binary_points(), st.integers(-6, 6))
    @settings(max_examples=200)
    def test_shift_matches_reference(self, x, n):
        want = make_point(BIN, x.window, right=x.right, left=x.left,
                          lo=x.lo - n)
        assert same_point(shift_point(x, n), want)

    def test_named_points(self):
        shift = build_full_shift()
        assert shift.point_names() == ("alternating", "one", "step", "zero")
        alt = shift.point("alternating")
        assert [alt.value(n) for n in range(-2, 3)] == [0, 1, 0, 1, 0]
        # shifting the alternating point twice returns it exactly
        assert shift.act(2, alt) == alt
        assert shift.act(1, alt) != alt

    def test_single_family(self):
        shift = build_full_shift()
        x = shift.family("single", 4)
        assert x.value(4) == 1 and x.value(3) == 0 and x.value(100) == 0
        assert shift.act(4, x) == shift.family("single", 0)

    def test_step_points(self):
        shift = build_full_shift()
        s = shift.family("step", 2)
        assert s.value(2) == 0 and s.value(3) == 1
        assert shift.act(1, s) == shift.family("step", 1)


class TestOdometer:
    def test_binary_counter_oracle(self):
        od = build_odometer()
        zero = od.point("zero")
        for n in range(-64, 65):
            x = od.act(n, zero)
            for k in range(8):
                assert x.value(k) == ((n % 256) >> k) & 1

    def test_mixed_radix_counter_oracle(self):
        od = build_odometer((2, 3))
        zero = od.point("zero")
        for n in range(0, 80):
            x = od.act(n, zero)
            rest = n
            for k in range(5):
                size = 2 if k % 2 == 0 else 3
                assert x.value(k) == rest % size
                rest //= size

    def test_minus_one(self):
        od = build_odometer()
        m = od.point("minus-one")
        assert od.act(1, m) == od.point("zero")
        assert all(m.value(k) == 1 for k in range(10))

    @given(odometer_points(), st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=80)
    def test_group_law(self, x, a, b):
        od = build_odometer()
        assert od.act(a, od.act(b, x)) == od.act(a + b, x)

    @given(odometer_points(), odometer_points(), st.integers(-50, 50))
    @settings(max_examples=80)
    def test_addition_is_isometry(self, x, y, n):
        od = build_odometer()
        assert distance(od.act(n, x), od.act(n, y)) == distance(x, y)

    @given(st.sampled_from([(2,), (2, 3)]), st.integers(0, 500),
           st.integers(-600, 600))
    @settings(max_examples=200)
    def test_addition_matches_integers(self, moduli, v, n):
        od = build_odometer(moduli)
        sizes = [od.scheme.size(k) for k in range(24)]

        def digits(value):
            out = []
            for size in sizes:
                out.append(value % size)
                value //= size
            return out

        x = make_point(od.scheme, digits(v), right=0)
        moved = od.act(n, x)
        # the low digits of the sum, modulo every place value
        assert [moved.value(k) for k in range(24)] == digits(v + n)
        if v + n >= 0:
            assert moved == make_point(od.scheme, digits(v + n), right=0)

    @given(odometer_cases(), st.one_of(st.integers(-600, 600),
                                       st.integers(-3, 3),
                                       st.integers(-10**9, 10**9)))
    @example((build_odometer().scheme,
              build_odometer().point("zero")), -1)
    @example((build_odometer((2, 3)).scheme,
              build_odometer((2, 3)).point("minus-one")), 1)
    @settings(max_examples=400)
    def test_add_matches_reference(self, case, n):
        scheme, x = case
        y = odometer_add(scheme, n, x)
        expected = reference_odometer_add(scheme, n, x)
        assert y == expected and hash(y) == hash(expected)
        assert repr(y) == repr(expected)
        # built directly, yet canonical and valid
        assert make_point(scheme, y.window, right=y.right) == y

    def test_bad_moduli(self):
        with pytest.raises(DomainError):
            build_odometer((2, 1))

    # a float or a string must not be read as some other modulus
    @pytest.mark.parametrize("moduli", [(2.5,), ("3",), (True,), (2, 3.0),
                                        (), (2, -3)])
    def test_moduli_must_be_exact_ints(self, moduli):
        with pytest.raises(DomainError,
                           match="odometer moduli must all be >= 2"):
            build_odometer(moduli)

    def test_elements_must_be_exact_ints(self):
        od = build_odometer()
        for g in (True, False, 1.0):
            with pytest.raises(RangeError, match="must be int"):
                od.act(g, od.point("zero"))


def popcount_word(length: int) -> list:
    return [bin(i).count("1") % 2 for i in range(length)]


class TestThueMorse:
    def test_language_against_popcount_oracle(self):
        word = popcount_word(4096)
        tm = build_thue_morse()
        for n in range(1, 9):
            oracle = frozenset(tuple(word[i:i + n])
                               for i in range(len(word) - n + 1))
            assert tm.language(n) == oracle

    def test_factor_counts(self):
        tm = build_thue_morse()
        counts = [len(tm.language(n)) for n in range(1, 9)]
        assert counts == [2, 4, 6, 10, 12, 16, 20, 22]

    def test_reflection_point_values(self):
        tm = build_thue_morse()
        word = popcount_word(64)
        x = tm.point("reflection")
        for c in range(0, 60):
            assert x.value(c) == word[c]
        for c in range(-60, 0):
            assert x.value(c) == word[-c - 1]

    def test_flipped_reflection(self):
        tm = build_thue_morse()
        word = popcount_word(64)
        y = tm.point("reflection-flipped")
        for c in range(0, 60):
            assert y.value(c) == 1 - word[c]
        for c in range(-60, 0):
            assert y.value(c) == word[-c - 1]

    def test_windows_of_reflection_are_admissible(self):
        tm = build_thue_morse()
        x = tm.point("reflection")
        lang6 = tm.language(6)
        for c in range(-20, 15):
            assert tuple(x.value(c + i) for i in range(6)) in lang6

    def test_substitution_needs_positive_length(self):
        with pytest.raises(PreconditionError):
            substitution_factors({0: (0, 1), 1: (1, 0)}, 0)


class TestSuccessorMap:
    def test_periods_match_dial_size(self):
        sm = build_successor_map()
        for c in range(2, 12):
            x = sm.family("unit-at", c)
            period = c + 1
            assert sm.act(period, x) == x
            for k in range(1, period):
                assert sm.act(k, x) != x

    def test_zero_is_fixed(self):
        sm = build_successor_map()
        zero = sm.point("zero")
        for n in (-5, -1, 1, 2, 17):
            assert sm.act(n, zero) == zero

    def test_first_coordinate_never_moves(self):
        sm = build_successor_map()
        for name in ("zero", "unit"):
            x = sm.point(name)
            for n in range(-6, 7):
                assert sm.act(n, x).value(2) == x.value(2)

    def test_group_law_on_unit(self):
        sm = build_successor_map()
        x = sm.point("unit")
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert sm.act(a, sm.act(b, x)) == sm.act(a + b, x)

    # below the start an empty run of zeros would put the 1 at the start
    def test_unit_at_needs_a_coordinate_of_the_scheme(self):
        sm = build_successor_map()
        for c in (-3, 0, 1):
            with pytest.raises(RangeError,
                               match="coordinate %d below scheme start 2"
                               % c):
                sm.family("unit-at", c)
        for c in (2.5, True, "3"):
            with pytest.raises(PreconditionError, match="must be an int"):
                sm.family("unit-at", c)
        assert sm.family("unit-at", 2) == sm.point("unit")
        x = sm.family("unit-at", 5)
        assert [x.value(n) for n in range(2, 9)] == [0, 0, 0, 1, 0, 0, 0]

    @given(successor_points(), st.integers(-200, 200))
    @settings(max_examples=300)
    def test_act_matches_reference(self, x, n):
        y = successor_act(n, x)
        expected = reference_successor_act(n, x)
        assert y == expected and hash(y) == hash(expected)
        assert make_point(x.scheme, y.window, right=y.right) == y


class TestTwoCopy:
    def test_generator_relations(self):
        G = TwoCopyGroup(4)
        for i in range(1, 5):
            b = G.named_generator("b%d" % i)
            assert G.multiply(b, b) == G.identity
        for j in range(-4, 5):
            e = G.named_generator("e%d" % j)
            assert G.multiply(e, e) == G.identity

    def test_flip_and_swap_do_not_commute_inside_region(self):
        G = TwoCopyGroup(3)
        b1 = G.named_generator("b1")
        e0 = G.named_generator("e0")
        assert G.multiply(b1, e0) != G.multiply(e0, b1)
        # a flip outside the region commutes
        e3 = G.named_generator("e3")
        assert G.multiply(b1, e3) == G.multiply(e3, b1)

    def test_action_identities(self):
        sys2 = build_two_copy(4)
        G = sys2.group
        for i in range(1, 5):
            b = G.named_generator("b%d" % i)
            plus = sys2.family("step", i, 1)
            minus = sys2.family("step", i, -1)
            assert sys2.equal(sys2.act(b, plus), minus)
            om = sys2.point("o-minus")
            assert sys2.equal(sys2.act(b, om), om)

    def test_action_respects_composition(self):
        sys2 = build_two_copy(3)
        G = sys2.group
        b1 = G.named_generator("b1")
        e0 = G.named_generator("e0")
        x = sys2.family("step", 1, 1)
        lhs = sys2.act(G.multiply(b1, e0), x)
        rhs = sys2.act(b1, sys2.act(e0, x))
        assert sys2.equal(lhs, rhs)

    # a sign of 2 would print as "+", like 1, yet name another point
    @pytest.mark.parametrize("sign", [0, 2, -2, True, 1.0])
    def test_step_needs_a_sign(self, sign):
        sys2 = build_two_copy()
        with pytest.raises(RangeError, match="sign must be 1 or -1"):
            sys2.family("step", 0, sign)

    def test_sign_distance(self):
        sys2 = build_two_copy()
        assert sys2.distance(sys2.point("o-plus"),
                             sys2.point("o-minus")) == 1

    def test_flip_coordinates_must_be_exact_ints(self):
        G = TwoCopyGroup(3)
        empty = G.identity[1]
        for flips in (frozenset({True}), frozenset({2, False})):
            with pytest.raises(RangeError, match="frozenset of ints"):
                G.validate((flips, empty))
        G.validate((frozenset({1}), empty))


    # the key reads codes; code order is lexicographic pattern order and
    # a code set has as many members as its pattern set
    def test_sort_key_orders_like_pattern_tuples(self):
        G = TwoCopyGroup(3)

        def tuple_key(g):
            v, d = g
            return (len(v), tuple(sorted(v)), len(d.patterns), d.lo, d.hi,
                    tuple(sorted(d.patterns)))

        elements = list(ball(G, 3))
        assert len(elements) == 418
        assert len({tuple_key(g) for g in elements}) == len(elements)
        assert sorted(elements, key=G.sort_key) == \
            sorted(elements, key=tuple_key)


class TestFlipCoords:
    @given(binary_points(), st.frozensets(st.integers(-5, 5)))
    @settings(max_examples=300)
    def test_matches_reference(self, y, coords):
        assert same_point(_flip_coords(y, coords),
                          reference_flip_coords(y, coords))

    def test_far_coordinates_on_an_empty_window(self):
        for i in (-6, 6):
            y = step_point(BIN, i)
            for coords in ({0}, {-2, 3}, {i, i + 1}):
                assert same_point(_flip_coords(y, coords),
                                  reference_flip_coords(y, coords))


class TestCanonicalFormWork:
    """Deterministic work counts: the two-copy group law and the
    two-copy and McMahon actions build results that are canonical by
    construction, so they validate no symbol and call no
    ``make_point``."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"make_point": 0, "_check_symbol": 0, "_check_symbols": 0}
        # rebind every name a zerodim module holds the function under
        for name in counts:
            original = getattr(cantor, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname.startswith("zerodim"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, counted)
        return counts

    def test_two_copy_multiply_validates_nothing(self, counts):
        G = TwoCopyGroup(3)
        gens = G.generators()
        counts.update(dict.fromkeys(counts, 0))
        products = {G.multiply(a, b) for a in gens for b in gens}
        products |= {G.inverse(p) for p in products}
        assert len(products) > len(gens)
        assert counts == {"make_point": 0, "_check_symbol": 0,
                          "_check_symbols": 0}

    def test_two_copy_act_builds_no_point(self, counts):
        system = build_two_copy(3)
        G = system.group
        g = G.multiply(G.named_generator("b2"), G.named_generator("e-1"))
        x = system.family("step", 1)
        before = dict(counts)
        y = system.act(g, x)
        assert y != x
        assert counts == before

    def test_mcmahon_act_builds_no_point(self, counts):
        system = build_mcmahon(3)
        x = system.family("ring", 2)
        before = dict(counts)
        y = system.act((frozenset({-3, 0, 2}), 1), x)
        assert y != x
        assert counts == before


class TestMcMahon:
    def test_generators_commute_and_have_order_four(self):
        G = McMahonGroup(4)
        s = (frozenset(), 1)
        for i in range(-4, 5):
            for j in range(-4, 5):
                ti = (frozenset({i}), 0)
                tj = (frozenset({j}), 0)
                assert G.multiply(ti, tj) == G.multiply(tj, ti)
            ti = (frozenset({i}), 0)
            sq = G.multiply(ti, ti)
            assert sq == s
            assert G.multiply(sq, sq) == G.identity

    def test_action_square_fixes_base_point(self):
        sysm = build_mcmahon(4)
        G = sysm.group
        x = sysm.point("base")
        for i in range(-4, 5):
            t = (frozenset({i}), 0)
            twice = sysm.act(t, sysm.act(t, x))
            # the base copy returns, the parity bit flips
            assert twice[0] == x[0] and twice[1] == 1 - x[1]
            four = sysm.act(t, sysm.act(t, twice))
            assert sysm.equal(four, x)

    def test_ring_flip_identity(self):
        sysm = build_mcmahon(5)
        for j in range(1, 5):
            t = (frozenset({j}), 0)
            got = sysm.act(t, sysm.family("ring-flipped", j, 1))
            want = sysm.family("ring", j, 0)
            assert sysm.equal(got, want)

    def test_ring_distances(self):
        sysm = build_mcmahon(5)
        marked = sysm.point("marked")
        for j in range(1, 5):
            xj = sysm.family("ring-flipped", j, 1)
            assert sysm.distance(marked, xj) == Fraction(1, 2 ** j)

    @pytest.mark.parametrize("name", ["ring", "ring-flipped"])
    def test_rings_need_a_parity_bit(self, name):
        sysm = build_mcmahon()
        for bit in (5, 2, -1, True, 0.0):
            with pytest.raises(RangeError, match="parity bit must be 0 or 1"):
                sysm.family(name, 1, bit)
        for bit in (0, 1):
            assert sysm.family(name, 1, bit)[1] == bit
        assert sysm.format_point(sysm.family(name, 1, 1)).startswith("(1, ")

    def test_word_lengths(self):
        G = McMahonGroup(3)
        from zerodim.groups import word_length
        assert word_length(G, (frozenset({1}), 0)) == 1
        assert word_length(G, (frozenset(), 1)) == 2
        assert word_length(G, (frozenset({-1, 2}), 0)) == 2

    def test_elements_must_be_exact_ints(self):
        G = McMahonGroup(3)
        for bad in ((frozenset({True}), 0), (frozenset({1, False}), 0)):
            with pytest.raises(RangeError, match="frozenset of ints"):
                G.validate(bad)
        for parity in (True, False, 1.0):
            with pytest.raises(RangeError, match="parity bit"):
                G.validate((frozenset({1}), parity))
        G.validate((frozenset({1}), 1))


class TestFlipGroups:
    """The checks the two word groups share."""

    @pytest.mark.parametrize("cls,part", [(TwoCopyGroup, "region"),
                                          (McMahonGroup, "parity")])
    def test_shared_checks(self, cls, part):
        for m in (0, -2):
            with pytest.raises(DomainError,
                               match="truncation index must be >= 1"):
                cls(m)
        G = cls(2)
        assert G.m == 2
        for bad in ((frozenset(),), [frozenset(), 0], "e0"):
            with pytest.raises(RangeError, match=r"element must be a "
                               r"\(flips, %s\) pair" % part):
                G.validate(bad)
        with pytest.raises(RangeError, match="flip part must be"):
            G.validate(({1}, G.identity[1]))
        with pytest.raises(RangeError, match="outside truncation range"):
            G.validate((frozenset({3}), G.identity[1]))
        with pytest.raises(RangeError, match="part must be a clopen set"
                           if part == "region" else "parity bit"):
            G.validate((frozenset({1}), None))
        for g in G.generators():
            G.validate(g)


class TestCircleStack:
    def test_rotation_periods(self):
        cs = get_system("circle-stack")
        for level in range(1, 12):
            p = cs.family("level", level)
            assert cs.act(level + 1, p) == p
            for k in range(1, level + 1):
                assert cs.act(k, p) != p

    def test_exact_angles(self):
        cs = get_system("circle-stack")
        p = cs.family("level", 3)
        q = cs.act(5, p)
        assert q.turn == Fraction(5, 4) % 1 == Fraction(1, 4)

    def test_limit_is_fixed(self):
        cs = get_system("circle-stack")
        lim = cs.point("limit")
        assert cs.act(1000, lim) == lim

    def test_distance_combines_radius_and_arc(self):
        a = CirclePoint(1, Fraction(0))
        b = CirclePoint(2, Fraction(0))
        assert circle_distance(a, b) == Fraction(2, 3) - Fraction(1, 2)
        c = CirclePoint(1, Fraction(1, 2))
        assert circle_distance(a, c) == Fraction(1)
        d = CirclePoint(1, Fraction(9, 10))
        assert circle_distance(a, d) == Fraction(1, 5)

    def test_component_projection(self):
        cs = get_system("circle-stack")
        comp = component_projection(cs)
        assert comp.kind == "quotient"
        assert comp.act(7, 3) == 3
        assert comp.distance(1, None) == Fraction(1, 2)
        with pytest.raises(DomainError):
            component_projection(comp)


def reference_component_radius(level):
    """The quotient's radius helper as it stood on its own."""
    if level is None:
        return Fraction(1)
    return Fraction(level, level + 1)


def reference_component_reps(level, depth):
    """The quotient's representatives written out level by level, with
    no stack point built."""
    eps = Fraction(1, 2 ** depth)
    out = [level]
    if level is None:
        out.append(max(1, 2 ** depth - 1))
    else:
        for m in (level - 1, level + 1):
            if m >= 1 and abs(reference_component_radius(m)
                              - reference_component_radius(level)) <= eps:
                out.append(m)
        if 1 - reference_component_radius(level) <= eps:
            out.append(None)
    return tuple(out)


def reference_tagged_distance(a, b):
    """The ``dist`` closure that ``two-copy`` and ``mcmahon`` each
    carried, the same code in both."""
    ya, sa = a
    yb, sb = b
    if sa != sb:
        return Fraction(1)
    return distance(ya, yb)


LEVELS = st.one_of(st.none(), st.integers(1, 40))


class TestComponentQuotient:
    @given(LEVELS, st.integers(1, 10))
    @settings(max_examples=300)
    @example(None, 1)
    @example(1, 1)
    @example(1, 2)
    def test_reps_match_the_level_by_level_oracle(self, level, depth):
        got = CIRCLE_COMPONENTS.neighbor_reps(level, depth)
        assert got == reference_component_reps(level, depth)

    @given(LEVELS, LEVELS, st.fractions(0, 1))
    @settings(max_examples=200)
    def test_one_radius_for_the_stack_and_the_quotient(self, a, b, turn):
        assert level_radius(a) == reference_component_radius(a)
        assert CirclePoint(a, turn).radius == reference_component_radius(a)
        assert CIRCLE_COMPONENTS.distance(a, b) == abs(
            reference_component_radius(a) - reference_component_radius(b))

    def test_level_zero_is_not_a_component(self):
        # the family builds its label through a stack point, and the
        # stack has no level 0, no negative level and no bool level
        for bad in (0, -1, True, "x"):
            with pytest.raises(RangeError, match="positive int"):
                CIRCLE_COMPONENTS.family("level", bad)
            with pytest.raises(RangeError, match="positive int"):
                CirclePoint(bad, Fraction(0))
        with pytest.raises(RangeError, match="positive int"):
            CIRCLE_COMPONENTS.neighbor_reps(0, 1)
        assert CIRCLE_COMPONENTS.family("level", 3) == 3
        assert CIRCLE_COMPONENTS.family("level", None) is None


TWO_COPY = get_system("two-copy")
MCMAHON = get_system("mcmahon")


def two_copy_points():
    return st.builds(lambda i, sign: TWO_COPY.family("step", i, sign),
                     st.integers(-6, 6), st.sampled_from((1, -1)))


def mcmahon_points():
    return st.builds(lambda name, j, bit: MCMAHON.family(name, j, bit),
                     st.sampled_from(("ring", "ring-flipped")),
                     st.integers(0, 6), st.integers(0, 1))


class TestTaggedDistance:
    @staticmethod
    def check(system, a, b):
        want = reference_tagged_distance(a, b)
        assert _tagged_distance(a, b) == want
        assert system.distance(a, b) == want

    @given(two_copy_points(), two_copy_points())
    @settings(max_examples=200)
    def test_two_copy_matches_the_closure_oracle(self, a, b):
        self.check(TWO_COPY, a, b)

    @given(mcmahon_points(), mcmahon_points())
    @settings(max_examples=200)
    def test_mcmahon_matches_the_closure_oracle(self, a, b):
        self.check(MCMAHON, a, b)


class TestPointBuilders:
    def test_step_point_values(self):
        s = step_point(BIN, 2)
        assert [s.value(n) for n in range(0, 5)] == [0, 0, 0, 1, 1]
        assert s.value(-10) == 0

    def test_ring_point_values(self):
        r = ring_point(BIN, 2)
        assert [r.value(n) for n in range(-4, 5)] == [1, 1, 0, 0, 0, 0, 0, 1, 1]
        f = ring_point(BIN, 2, flip_at=1)
        assert f.value(1) == 1 and f.value(0) == 0
        with pytest.raises(RangeError):
            ring_point(BIN, 2, flip_at=5)

    @given(st.one_of(
        binary_points(),
        st.sampled_from(FULL_SHIFT.point_names()).map(FULL_SHIFT.point),
        st.integers(-9, 9).map(lambda i: step_point(BIN, i)),
        st.integers(-9, 9).map(lambda k: FULL_SHIFT.family("single", k))),
        st.integers(-40, 40).filter(bool))
    @settings(max_examples=200)
    def test_shift_point_equals_rebuilt_translate(self, x, n):
        # the translate as make_point builds it from every window symbol
        rebuilt = make_point(BIN, {c - n: x.value(c)
                                   for c in range(x.lo, x.hi + 1)},
                             right=x.right, left=x.left, lo=x.lo - n)
        moved = shift_point(x, n)
        assert moved == rebuilt and hash(moved) == hash(rebuilt)
        assert shift_point(moved, -n) == x

    def test_shift_point_requires_two_sided(self):
        x = make_point(Scheme("one-sided"), (1,), 0)
        with pytest.raises(DomainError):
            shift_point(x, 1)


def same_built_point(got, want):
    """Equal under ``==``, ``hash`` and ``repr``, with the same fields
    in the same order, each of the same type."""
    fields = list(vars(got).items()), list(vars(want).items())
    return same_point(got, want) and fields[0] == fields[1] and \
        [type(v) for _, v in fields[0]] == [type(v) for _, v in fields[1]]


ODOMETER_STEPS = (1, -1, 2, -2, 7, -7, 300, -300)


class TestTrustedPoints:
    """The actions build points with ``cantor._trusted_point``, which
    checks nothing; each result must be the point ``make_point``
    builds from the same coordinates."""

    @given(st.one_of(
        binary_points(),
        st.integers(-9, 9).map(lambda i: step_point(BIN, i)),
        st.integers(-9, 9).map(lambda k: FULL_SHIFT.family("single", k))),
        st.integers(-40, 40).filter(bool))
    @settings(max_examples=200)
    def test_shift_point(self, x, n):
        moved = shift_point(x, n)
        rebuilt = make_point(BIN, {c: moved.value(c)
                                   for c in range(x.lo - n, x.hi - n + 1)},
                             right=x.right, left=x.left, lo=x.lo - n)
        assert same_built_point(moved, rebuilt)

    @given(odometer_cases(), st.sampled_from(ODOMETER_STEPS))
    @settings(max_examples=400)
    def test_odometer_add(self, case, n):
        scheme, x = case
        y = odometer_add(scheme, n, x)
        assert same_built_point(y, reference_odometer_add(scheme, n, x))
        assert same_built_point(y, make_point(scheme, y.window,
                                              right=y.right))

    @given(st.integers(2, 14), st.integers(-40, 40), st.integers(0, 6))
    @settings(max_examples=200)
    def test_successor_act_on_unit_at(self, c, n, steps):
        y = build_successor_map().family("unit-at", c)
        for _ in range(steps + 1):      # along the orbit, by n each time
            want = reference_successor_act(n, y)
            y = successor_act(n, y)
            assert same_built_point(y, want)
            assert same_built_point(y, make_point(y.scheme, y.window,
                                                  right=y.right))

    def test_successor_act_on_unit_trims_only_an_absorbed_dial(
            self, monkeypatch):
        # the dial of unit is coordinate 3, past its window: only a turn
        # back to 0, the tail's symbol, can be absorbed into the tail
        calls = []
        canonical = flows.canonical_point

        def counted(*args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(flows, "canonical_point", counted)
        sm = build_successor_map()
        y = sm.point("unit")
        for _ in range(30):
            y = sm.act(1, y)
        assert y == sm.point("unit") and len(calls) == 10

    def test_trusted_point_is_frozen_and_replaceable(self):
        od = build_odometer()
        for x in (shift_point(make_point(BIN, (1, 0, 1), 0, 1), 3),
                  odometer_add(od.scheme, 5, od.point("zero")),
                  successor_act(1, build_successor_map().point("unit"))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                x.lo = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del x.window
            same = dataclasses.replace(x)
            assert same_built_point(same, x) and same is not x
            other = dataclasses.replace(x, right=(1,))
            assert other != x and other.window == x.window
            assert [f.name for f in dataclasses.fields(x)] == list(vars(x))


# a few members of every point family, per system; some name one point
# twice (a turn past 1), so ``equal`` meets equal points built apart
FAMILY_ARGS = {
    "circle-stack": [("level", (1,)), ("level", (3, Fraction(1, 2))),
                     ("level", (1, Fraction(3, 2))),
                     ("limit-at", (Fraction(1, 4),)),
                     ("limit-at", (Fraction(5, 4),))],
    "circle-stack-components": [("level", (1,)), ("level", (3,)),
                                ("level", (None,))],
    "full-shift": [("single", (-1,)), ("single", (2,)), ("step", (0,)),
                   ("step", (-2,))],
    "mcmahon": [("ring", (1,)), ("ring", (2, 1)), ("ring-flipped", (1, 1)),
                ("ring-flipped", (2,))],
    "odometer": [],
    "successor-map": [("unit-at", (2,)), ("unit-at", (3,))],
    "thue-morse": [("reflection", (2,)), ("reflection", (4,)),
                   ("reflection-flipped", (2,))],
    "two-copy": [("step", (0, 1)), ("step", (1, -1)), ("step", (-2, 1))],
}


class TestClose:
    @pytest.mark.parametrize("sid", available_systems())
    def test_close_is_the_distance_test(self, sid):
        system = get_system(sid)
        pts = [system.point(n) for n in system.point_names()]
        for x in pts:
            for y in pts:
                for depth in range(1, 7):
                    assert system.cell(x, depth)(y) == (
                        system.distance(x, y) <= Fraction(1, 2 ** depth))

    @pytest.mark.parametrize("sid", available_systems())
    def test_equal_is_distance_zero(self, sid):
        system = get_system(sid)
        pts = [system.point(n) for n in system.point_names()]
        pts += [system.family(f, *args) for f, args in FAMILY_ARGS[sid]]
        for x in pts:
            for y in pts:
                assert system.equal(x, y) == (system.distance(x, y) == 0)

    # the depth-0 cell would be the whole space, so every pair would be
    # close; True would run as depth 1 and a float would reach 2 ** depth
    @pytest.mark.parametrize("sid", available_systems())
    @pytest.mark.parametrize("depth", [True, 2.5, 0])
    def test_cell_rejects_bad_depth(self, sid, depth):
        system = get_system(sid)
        x = system.point(system.point_names()[0])
        with pytest.raises(PreconditionError):
            system.cell(x, depth)


# every family whose first argument is an int coordinate, index or
# radius; the circle levels also take None and are checked by
# ``CirclePoint`` itself
INT_FAMILIES = [("full-shift", "single"), ("full-shift", "step"),
                ("mcmahon", "ring"), ("mcmahon", "ring-flipped"),
                ("successor-map", "unit-at"), ("thue-morse", "reflection"),
                ("thue-morse", "reflection-flipped"), ("two-copy", "step")]


class TestFamilyArguments:
    # 2.5 built a step at a fractional coordinate printed like the step
    # at 2, True ran as 1, and elsewhere a float escaped as a TypeError
    @pytest.mark.parametrize("sid, name", INT_FAMILIES)
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_int_arguments_are_exact_ints(self, sid, name, bad):
        with pytest.raises(PreconditionError,
                           match="must be an int, got %r" % bad):
            get_system(sid).family(name, bad)

    # 0.1 became 3602879701896397/36028797018963968, True turn 0 and
    # "1/3" turn 1/3
    @pytest.mark.parametrize("name, args", [
        ("limit-at", (0.1,)), ("limit-at", (True,)),
        ("level", (2, True)), ("level", (2, "1/3")), ("level", (2, 0.5)),
    ], ids=["float-limit", "bool-limit", "bool-level", "string-level",
            "float-level"])
    def test_circle_turns_are_int_or_fraction(self, name, args):
        with pytest.raises(PreconditionError,
                           match="turn must be an int or Fraction, got %r"
                           % (args[-1],)):
            get_system("circle-stack").family(name, *args)


def reference_returns(system, x, depth, ns):
    """Oracle: act by every shift and ask the depth-closeness test."""
    return [n for n in ns if system.cell(system.act(n, x), depth)(x)]


INTEGER_SYSTEMS = tuple(sid for sid in available_systems()
                        if get_system(sid).group.variant == "integers")
CIRCLES = get_system("circle-stack")
CIRCLE_COMPONENTS = get_system("circle-stack-components")
RANGES = (range(-20, 21), range(20, -21, -1), range(0), range(0, 1),
          range(7, 8), range(-7, -8, -1), range(1, 33), range(-1, -33, -1),
          range(-30, -3), range(3, 30), range(12, -4, -1))


def shift_ranges():
    """Ascending or descending ranges of length 0-40 that may or may not
    hold 0, some of them far out in the tails.  Half of them step by
    +-1, the others by +-2, +-3 or +-7, which the default ``returns``
    walks one step at a time."""
    return st.builds(
        lambda start, length, step: range(start, start + step * length, step),
        st.integers(-24, 24) | st.integers(-400, 400), st.integers(0, 40),
        st.sampled_from((1, -1)) | st.sampled_from((2, -2, 3, -3, 7, -7)))


def odometer_system(scheme):
    """The odometer whose digit stream lives on ``scheme``."""
    return build_odometer(scheme.alphabet if isinstance(
        scheme.alphabet, tuple) else (scheme.alphabet,))


def circle_points():
    """Circle-stack points of the ``level`` and ``limit-at`` families,
    at turns of small denominator."""
    turns = st.builds(Fraction, st.integers(0, 40), st.integers(1, 16))
    return st.one_of(
        st.builds(CirclePoint, st.integers(1, 12), turns),
        st.builds(CirclePoint, st.none(), turns))


def full_shift_points():
    return st.one_of(
        binary_points(),
        st.integers(-12, 12).map(lambda k: FULL_SHIFT.family("single", k)),
        st.integers(-12, 12).map(lambda i: FULL_SHIFT.family("step", i)),
        st.sampled_from([FULL_SHIFT.point(n)
                         for n in FULL_SHIFT.point_names()]))


class TestReturns:
    """``FlowSystem.returns`` against acting by every shift."""

    @pytest.mark.parametrize("sid", INTEGER_SYSTEMS)
    def test_named_points(self, sid):
        system = get_system(sid)
        for name in system.point_names():
            x = system.point(name)
            for depth in range(1, 9):
                for ns in RANGES:
                    assert list(system.returns(x, depth, ns)) == \
                        reference_returns(system, x, depth, ns)

    @given(full_shift_points(), st.integers(1, 8), shift_ranges())
    @settings(max_examples=400)
    def test_full_shift(self, x, depth, ns):
        assert list(FULL_SHIFT.returns(x, depth, ns)) == \
            reference_returns(FULL_SHIFT, x, depth, ns)

    @given(st.integers(1, 12), st.booleans(), st.integers(1, 8),
           shift_ranges())
    @settings(max_examples=200)
    def test_small_radius_reflections(self, radius, flipped, depth, ns):
        tm = build_thue_morse()
        x = tm.family("reflection-flipped" if flipped else "reflection",
                      radius)
        assert list(tm.returns(x, depth, ns)) == \
            reference_returns(tm, x, depth, ns)

    @given(odometer_cases(), st.integers(1, 8), shift_ranges())
    @settings(max_examples=300)
    def test_odometers(self, case, depth, ns):
        scheme, x = case
        system = odometer_system(scheme)
        for y in (x,) + tuple(system.point(n) for n in system.point_names()):
            assert list(system.returns(y, depth, ns)) == \
                reference_returns(system, y, depth, ns)

    @given(successor_points(), st.integers(1, 8), shift_ranges())
    @settings(max_examples=100)
    def test_successor_map(self, x, depth, ns):
        system = build_successor_map()
        assert list(system.returns(x, depth, ns)) == \
            reference_returns(system, x, depth, ns)

    @given(circle_points(), st.integers(1, 8), shift_ranges())
    @settings(max_examples=200)
    def test_circle_stack_and_components(self, p, depth, ns):
        # the systems with their own metric, which ask ``close``
        for system, x in ((CIRCLES, p),
                          (CIRCLE_COMPONENTS, circle_component(p))):
            assert list(system.returns(x, depth, ns)) == \
                reference_returns(system, x, depth, ns)

    def test_word_groups_rejected(self):
        for system in (build_two_copy(3), build_mcmahon(3)):
            x = system.point(system.point_names()[0])
            with pytest.raises(DomainError):
                system.returns(x, 2, range(1, 4))

    def test_bad_depth_and_shifts_rejected(self):
        x = FULL_SHIFT.point("zero")
        with pytest.raises(PreconditionError):
            FULL_SHIFT.returns(x, 0, range(1, 4))
        with pytest.raises(PreconditionError):
            FULL_SHIFT.returns(x, 2, [1, 2, 3])


ELEMENTS = st.integers(-300, 300)


def composes(system, x, a, b) -> bool:
    return system.equal(system.act(a, system.act(b, x)),
                        system.act(a + b, x))


class TestGroupLaw:
    """``act(a, act(b, x))`` is ``act(a + b, x)``: the default
    ``returns`` steps the orbit by the range's step on this identity."""

    SYSTEMS = {sid: get_system(sid) for sid in INTEGER_SYSTEMS}

    @pytest.mark.parametrize("sid", INTEGER_SYSTEMS)
    @given(ELEMENTS, ELEMENTS)
    @settings(max_examples=60)
    def test_named_points(self, sid, a, b):
        system = self.SYSTEMS[sid]
        for name in system.point_names():
            assert composes(system, system.point(name), a, b)

    @given(odometer_cases(), ELEMENTS, ELEMENTS)
    @settings(max_examples=300)
    def test_odometers(self, case, a, b):
        scheme, x = case
        assert composes(odometer_system(scheme), x, a, b)

    @given(successor_points(), ELEMENTS, ELEMENTS)
    @settings(max_examples=200)
    def test_successor_map(self, x, a, b):
        assert composes(build_successor_map(), x, a, b)


class TestLeftAction:
    """``act(multiply(s, a), x) == act(s, act(a, x))``: the contract
    ``FlowSystem.orbit_layers`` reaches each image by, one generator at
    a time."""

    @pytest.mark.parametrize("sid", available_systems())
    def test_generators_compose_on_the_left(self, sid):
        system = get_system(sid)
        group = system.group
        reach = power_set(group, 2).sorted(group)
        for name in system.point_names():
            x = system.point(name)
            for a in reach:
                ax = system.act(a, x)
                for s in group.generators():
                    assert system.act(group.multiply(s, a), x) == \
                        system.act(s, ax), (name, a, s)


def reference_orbit_layers(system, points, radius):
    """Image tuples of each Cayley layer, less those of shorter words,
    by acting with every element of the radius ball."""
    seen, out = set(), []
    for layer in _ball_layers(system.group, radius):
        images = {tuple(system.act(g, p) for p in points) for g in layer}
        out.append(images - seen)
        seen |= images
    return out


class TestOrbitLayers:
    def _layers(self, system, points, radius):
        out = []
        for r, images, g in system.orbit_layers(points, radius):
            # layer by layer, each tuple once, at its least word length
            assert r in (len(out) - 1, len(out))
            if r == len(out):
                out.append(set())
            assert word_length(system.group, g) == r
            assert tuple(system.act(g, p) for p in points) == images
            assert images not in set().union(*out)
            out[r].add(images)
        return out

    @pytest.mark.parametrize("sid,names,radius", [
        ("two-copy", ("o-minus",), 4),
        ("two-copy", ("o-plus", "o-minus"), 4),
        ("mcmahon", ("base", "marked"), 3),
        ("odometer", ("zero", "minus-one"), 6),
        ("circle-stack", ("level-2",), 6),
        ("circle-stack-components", ("level-1",), 3),
        ("thue-morse", ("reflection",), 5),
    ])
    def test_layers_match_the_ball_walk(self, sid, names, radius):
        system = get_system(sid)
        points = tuple(system.point(n) for n in names)
        got = self._layers(system, points, radius)
        want = reference_orbit_layers(system, points, radius)
        # a closed orbit stops the search: every later layer is empty
        assert got == want[:len(got)]
        assert not any(want[len(got):])

    def test_two_copy_orbit_closes(self):
        system = get_system("two-copy")
        x = system.point("o-minus")
        lengths = [r for r, _, _ in system.orbit_layers((x,), 64)]
        # 256 points; layer 9 comes up empty, so no longer word is tried
        assert [lengths.count(r) for r in range(9)] == \
            [1, 7, 23, 47, 65, 61, 37, 13, 2]
        assert len(lengths) == 256

    def test_free_integer_layers_in_sort_order(self):
        system = get_system("odometer")
        met = [g for _, _, g in system.orbit_layers((system.point("zero"),),
                                                    3)]
        assert met == [0, 1, -1, 2, -2, 3, -3]

    def test_finite_orbit_closes_at_once(self):
        system = get_system("circle-stack-components")
        layers = self._layers(system, (system.point("level-2"),), 8)
        assert layers == [{(system.point("level-2"),)}]

    def test_cap_raises_instead_of_truncating(self, monkeypatch):
        system = get_system("mcmahon")
        base = (system.point("base"),)
        # McMahon's action is free: the search meets the whole radius-3
        # ball, 1 + 14 + 43 + 70 = 128 elements, one image each
        for cap in (20, 127):
            monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", cap)
            with pytest.raises(ResourceCapError, match="orbit search"):
                list(system.orbit_layers(base, 3))
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 128)
        assert len(list(system.orbit_layers(base, 3))) == 128

    def test_one_cap_for_balls_and_orbits(self, monkeypatch):
        # the group layer's one cap bounds the orbit search as well
        system = build_mcmahon()
        base = (system.point("base"),)
        monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 127)
        with pytest.raises(ResourceCapError,
                           match="^ball enumeration exceeded cap 127$"):
            ball(system.group, 3)
        with pytest.raises(ResourceCapError,
                           match="^orbit search exceeded cap 127$"):
            list(system.orbit_layers(base, 3))

    @pytest.mark.parametrize("radius", [2.0, True, -1])
    def test_radius_must_be_a_nonnegative_int(self, radius):
        system = get_system("odometer")
        with pytest.raises(PreconditionError):
            next(system.orbit_layers((system.point("zero"),), radius))


class TestInputDepth:
    def test_depth_profiles(self):
        shift = get_system("full-shift")
        assert shift.required_input_depth(5, 3) == 8
        od = get_system("odometer")
        assert od.required_input_depth(100, 3) == 3
        cs = get_system("circle-stack")
        assert cs.required_input_depth(0, 4) == 4
        assert cs.required_input_depth(8, 4) > 4
        with pytest.raises(PreconditionError):
            shift.required_input_depth(1, 0)

    def test_neighbor_reps(self):
        od = get_system("odometer")
        reps = od.neighbor_reps(od.point("zero"), 3)
        assert od.point("zero") in reps
        assert all(distance(od.point("zero"), r) <= Fraction(1, 8)
                   for r in reps if r != od.point("zero"))
        cs = get_system("circle-stack")
        near = cs.neighbor_reps(cs.point("limit"), 4)
        assert any(p.level is not None for p in near)


def reference_constant_fill_reps(scheme, x, depth):
    """Oracle: complete x's depth cylinder by every constant symbol
    below the largest alphabet size, skip the completions
    ``make_point`` rejects, and keep the first of equal points."""
    cyl = cantor.depth_cylinder(x, depth)
    alphabet = scheme.alphabet
    sizes = alphabet if isinstance(alphabet, tuple) else \
        (alphabet if isinstance(alphabet, int) else 2,)
    out = [x]
    for s in range(max(sizes)):
        try:
            if scheme.kind == "two-sided":
                p = make_point(scheme, dict(zip(range(cyl.lo, cyl.hi + 1),
                                                cyl.pattern)),
                               right=s, left=s)
            else:
                p = make_point(scheme, list(cyl.pattern), right=s)
        except (RangeError, DomainError):
            continue
        if p not in out:
            out.append(p)
    return tuple(out)


def two_sided_points(scheme):
    sym = st.integers(0, scheme.alphabet - 1)
    tails = st.lists(sym, min_size=1, max_size=3).map(periodic_tail)
    return st.builds(
        lambda win, lo, r, l: make_point(scheme, win, r, l, lo=lo),
        st.lists(sym, max_size=6), st.integers(-4, 4), tails, tails)


def mixed_radix_points(scheme):
    """Digits valid at their coordinate, then a tail over the digits
    valid at every coordinate."""
    sizes = scheme.alphabet if isinstance(scheme.alphabet, tuple) \
        else (scheme.alphabet,)
    return st.builds(
        lambda win, tail: make_point(
            scheme, [d % sizes[i % len(sizes)] for i, d in enumerate(win)],
            right=periodic_tail(tail)),
        st.lists(st.integers(0, max(sizes) - 1), max_size=8),
        st.lists(st.integers(0, min(sizes) - 1), min_size=1, max_size=3))


CONSTANT_FILL_SYSTEMS = {
    "full-shift": (build_full_shift(), two_sided_points),
    "full-shift-3": (build_full_shift(3), two_sided_points),
    "thue-morse": (build_thue_morse(), two_sided_points),
    "odometer": (build_odometer(), mixed_radix_points),
    "odometer-23": (build_odometer((2, 3)), mixed_radix_points),
    "odometer-322": (build_odometer((3, 2, 2)), mixed_radix_points),
    "successor-map": (build_successor_map(),
                      lambda scheme: successor_points()),
}


class TestConstantFillReps:
    """``neighbor_reps`` of every symbol system against completing the
    depth cylinder, as the catalog once built them."""

    @pytest.mark.parametrize("name", sorted(CONSTANT_FILL_SYSTEMS))
    @given(data=st.data(), depth=st.integers(1, 5))
    @settings(max_examples=60)
    def test_matches_the_cylinder_completion(self, name, data, depth):
        system, points = CONSTANT_FILL_SYSTEMS[name]
        x = data.draw(points(system.scheme))
        assert system.neighbor_reps(x, depth) == \
            reference_constant_fill_reps(system.scheme, x, depth)
