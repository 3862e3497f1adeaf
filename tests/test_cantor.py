"""Symbol-space points, exact ultrametric distance, and the clopen
algebra, with membership semantics checked pointwise."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerodim.cantor import (ClopenSet, Cylinder, Point, Scheme,
                            _check_symbols, _is_symbol, _symbol_text,
                            clopen, complement, depth_cylinder, distance, from_cylinder,
                            intersection, make_point, periodic_tail,
                            points_equal, read_symbols, reanchor_tail,
                            sym_diff, union)
from zerodim.errors import (DomainError, PreconditionError, RangeError,
                            ResourceCapError)
from zerodim.flows import (_flip_region, build_full_shift, build_odometer,
                           build_successor_map)

BIN = Scheme("two-sided")
ONE = Scheme("one-sided")


def binary_points():
    """Strategy: points on the two-sided binary scheme with short
    windows and short periodic tails."""
    sym = st.integers(0, 1)
    tails = st.lists(sym, min_size=1, max_size=3).map(periodic_tail)
    return st.builds(
        lambda win, lo, r, l: make_point(BIN, win, r, l, lo=lo),
        st.lists(sym, min_size=0, max_size=5),
        st.integers(-3, 3),
        tails, tails)


def scheme_points(scheme):
    """Strategy: points on any scheme, with windows of up to 6 symbols
    (each reduced into its coordinate's alphabet) and tails of up to 3
    symbols below 2, which every alphabet admits at every coordinate."""
    sym = st.integers(0, 1)
    tails = st.lists(sym, min_size=1, max_size=3).map(periodic_tail)
    anchor = scheme.start if scheme.kind == "one-sided" else 0

    def build(raw, lo, right, left):
        if scheme.kind == "one-sided":
            lo, left = scheme.start, None
        window = [s % scheme.size(lo + i) for i, s in enumerate(raw)]
        return make_point(scheme, window, right, left, lo=lo)

    return st.builds(build, st.lists(st.integers(0, 5), max_size=6),
                     st.integers(anchor - 3, anchor + 3), tails, tails)


SCHEMES = (BIN, ONE, Scheme("two-sided", alphabet=3),
           Scheme("one-sided", start=1, alphabet=(2, 3)),
           Scheme("one-sided", start=2, alphabet="index"))


@st.composite
def near_pairs(draw, schemes=SCHEMES):
    """A scheme and two points on it: equal, independent, or one
    coordinate apart at a random offset."""
    scheme = draw(st.sampled_from(schemes))
    x = draw(scheme_points(scheme))
    how = draw(st.sampled_from(("equal", "independent", "one-apart")))
    if how == "equal":
        return scheme, x, make_point(scheme, x.window, x.right, x.left,
                                     lo=x.lo)
    if how == "independent":
        return scheme, x, draw(scheme_points(scheme))
    coord = draw(st.sampled_from(scheme.coords_at_offset(
        draw(st.integers(0, 9)))))
    lo, hi = min(x.lo, coord), max(x.hi, coord)
    if scheme.kind == "one-sided":
        lo = scheme.start
    window = [x.value(n) for n in range(lo, hi + 1)]
    window[coord - lo] = (window[coord - lo] + 1) % scheme.size(coord)
    left = None if x.left is None else reanchor_tail(x.left, x.lo - lo)
    return scheme, x, make_point(scheme, window,
                                 reanchor_tail(x.right, hi - x.hi), left,
                                 lo=lo)


class TestScheme:
    def test_kind_validation(self):
        with pytest.raises(DomainError):
            Scheme("circular")

    def test_index_alphabet_needs_one_sided_start_two(self):
        with pytest.raises(DomainError):
            Scheme("two-sided", alphabet="index")
        with pytest.raises(DomainError):
            Scheme("one-sided", start=1, alphabet="index")
        s = Scheme("one-sided", start=2, alphabet="index")
        assert s.size(2) == 2 and s.size(7) == 7

    def test_depth_window(self):
        assert BIN.depth_window(1) == (0, 0)
        assert BIN.depth_window(3) == (-2, 2)
        assert ONE.depth_window(3) == (0, 2)
        with pytest.raises(PreconditionError):
            BIN.depth_window(0)

    def test_coordinate_bounds(self):
        with pytest.raises(RangeError):
            ONE.check_coord(-1)
        BIN.check_coord(-100)


class TestTails:
    def test_primitive_reduction(self):
        assert periodic_tail((0, 1, 0, 1)) == (0, 1)
        assert periodic_tail((1, 1, 1)) == (1,)
        assert periodic_tail([0, 1, 1]) == (0, 1, 1)
        assert periodic_tail((0, 1, 0)) == (0, 1, 0)

    def test_reanchor_preserves_values(self):
        t = periodic_tail((0, 1, 1))
        for steps in range(7):
            moved = reanchor_tail(t, steps)
            assert len(moved) == len(t)
            for k in range(9):
                assert moved[k % len(moved)] == t[(k + steps) % len(t)]
        with pytest.raises(PreconditionError):
            reanchor_tail(t, -1)

    def test_empty_tail_rejected(self):
        with pytest.raises(DomainError, match="tail needs at least one"):
            periodic_tail(())
        for right, left in [((), 0), ([], 0), (0, ()), (0, [])]:
            with pytest.raises(DomainError,
                               match="tail needs at least one symbol"):
                make_point(BIN, [], right=right, left=left)
        with pytest.raises(DomainError, match="tail needs at least one"):
            make_point(ONE, [1], right=())

    def test_tail_as_tuple_list_or_symbol(self):
        # a tail is a tuple or list of symbols, or one bare symbol
        by_tuple = make_point(BIN, [0], right=(0, 1), left=(1, 1))
        assert make_point(BIN, [0], right=[0, 1], left=1) == by_tuple
        assert (by_tuple.window, by_tuple.right, by_tuple.left) == \
            ((0,), (0, 1), (1,))
        assert make_point(ONE, [1], right=[0, 0]).right == (0,)

    @pytest.mark.parametrize("bad", [1.0, True, "1", range(2),
                                     frozenset({1})])
    def test_other_tail_values_are_one_symbol(self, bad):
        # anything but a tuple or a list (or None, no left tail) is
        # checked as a single symbol
        with pytest.raises(RangeError):
            make_point(BIN, [], right=bad, left=0)
        with pytest.raises(RangeError):
            make_point(BIN, [], right=0, left=bad)


class TestPoints:
    def test_window_absorption(self):
        # explicit symbols equal to the tails get absorbed
        p = make_point(BIN, (0, 0, 1, 0, 0), 0, 0, lo=-2)
        assert (p.lo, p.hi, p.window) == (0, 0, (1,))

    def test_fully_periodic_point_canonical(self):
        a = make_point(BIN, (), periodic_tail((0, 1)), periodic_tail((1, 0)))
        b = make_point(BIN, (0,), periodic_tail((1, 0)),
                       periodic_tail((1, 0)), lo=0)
        assert a == b
        assert [a.value(n) for n in range(-2, 3)] == [0, 1, 0, 1, 0]

    def test_one_sided_constraints(self):
        with pytest.raises(DomainError):
            make_point(ONE, (0,), 0, 0)
        with pytest.raises(DomainError):
            make_point(ONE, (0,), 0, lo=3)
        p = make_point(ONE, (1, 0, 1), 0)
        assert p.value(0) == 1 and p.value(5) == 0
        with pytest.raises(RangeError):
            p.value(-1)

    def test_symbol_validation_index_alphabet(self):
        s = Scheme("one-sided", start=2, alphabet="index")
        p = make_point(s, (0, 1, 2), 0)
        assert p.value(4) == 2 and p.value(9) == 0
        with pytest.raises(RangeError):
            make_point(s, (1, 3, 0), 0)

    def test_mapping_window(self):
        p = make_point(BIN, {3: 1}, 0, 0)
        assert p.value(3) == 1
        assert all(p.value(n) == 0 for n in range(-5, 3))
        with pytest.raises(DomainError):
            make_point(BIN, {0: 1, 2: 1}, 0, 0)

    @given(binary_points())
    @settings(max_examples=120)
    def test_rebuild_from_values_is_identity(self, p):
        lo, hi = min(p.lo, -6), max(p.hi, 6)
        window = [p.value(n) for n in range(lo, hi + 1)]
        q = make_point(BIN, window, reanchor_tail(p.right, hi - p.hi),
                       reanchor_tail(p.left, p.lo - lo), lo=lo)
        assert q == p


def old_point_repr(p):
    left = "".join(str(s) for s in reversed(p.left)) + "..." \
        if p.left else ""
    win = "".join(str(s) for s in p.window)
    right = "..." + "".join(str(s) for s in p.right)
    return "<point ...%s[%s@%d]%s>" % (left, win, p.lo, right)


OLD_DIGITS = {s: str(s) for s in range(10)}


def old_symbol_text(symbols):
    """The per-symbol join ``_symbol_text`` replaced."""
    try:
        return "".join([OLD_DIGITS[s] for s in symbols])
    except KeyError:
        return "".join(map(str, symbols))


class TestRepr:
    @given(st.data())
    @settings(max_examples=150)
    def test_matches_the_per_symbol_formula(self, data):
        # symbols past 9 leave the digit table for str()
        scheme = data.draw(st.sampled_from((
            Scheme("two-sided", alphabet=12),
            Scheme("one-sided", alphabet=12))))
        sym = st.integers(0, 11)
        tails = st.lists(sym, min_size=1, max_size=3).map(periodic_tail)
        left = None if scheme.kind == "one-sided" else data.draw(tails)
        p = make_point(scheme, data.draw(st.lists(sym, max_size=8)),
                       data.draw(tails), left)
        assert repr(p) == old_point_repr(p)
        c = Cylinder(scheme, p.lo, p.hi, p.window)
        assert repr(c) == "<cyl [%s@%d]>" % (
            "".join(str(s) for s in p.window), p.lo)

    @given(st.lists(st.one_of(st.integers(0, 9), st.integers(-300, 300)),
                    max_size=40))
    @settings(max_examples=300)
    @example([])
    @example([10])
    @example([9, 255, 256, -1])
    def test_symbol_text_matches_the_str_join(self, symbols):
        # runs in 0..9 take the byte table; any other symbol (past 9,
        # past a byte, negative) the str join
        for run in (symbols, tuple(symbols)):
            assert _symbol_text(run) == old_symbol_text(run)


class TestSymbolTypes:
    """Only exact ints are symbols: a float or a bool equal to a valid
    symbol would serialize differently from the point it equals."""

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
    @pytest.mark.parametrize("where", ["window", "right", "left"])
    def test_non_int_symbol_rejected(self, bad, where):
        window, right, left = [1, 0, 1], (0,), (0, 1)
        if where == "window":
            window = [1, bad, 1]
        elif where == "right":
            right = (bad, 0)
        else:
            left = [1, bad]
        with pytest.raises(RangeError):
            make_point(BIN, window, right, left)

    @pytest.mark.parametrize("scheme", [ONE, Scheme("one-sided", 0, (2, 3)),
                                        Scheme("one-sided", 2, "index")])
    def test_non_int_rejected_on_one_sided_schemes(self, scheme):
        with pytest.raises(RangeError):
            make_point(scheme, [1, True], 0)
        with pytest.raises(RangeError):
            make_point(scheme, [1, 0], (1.0,))
        with pytest.raises(RangeError):
            make_point(scheme, [1, 0], 1.0)
        with pytest.raises(RangeError):
            make_point(scheme, [1, 0], True)

    def test_cylinder_rejects_bool(self):
        with pytest.raises(RangeError):
            Cylinder(BIN, 0, 0, (True,))

    @pytest.mark.parametrize("scheme", [BIN, Scheme("two-sided", alphabet=3)])
    @pytest.mark.parametrize("bad", [True, 1.0, -1, "size"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_bad_symbol_named_at_its_coordinate(self, scheme, bad, at):
        size = scheme.alphabet
        bad = size if bad == "size" else bad
        symbols = [1] * 5
        symbols[at] = bad
        want = "symbol %r invalid at coordinate %d (alphabet %d)" \
            % (bad, at - 3, size)
        with pytest.raises(RangeError) as raised:
            make_point(scheme, symbols, 0, 0, lo=-3)
        assert str(raised.value) == want
        with pytest.raises(RangeError) as raised:
            clopen(scheme, -3, [(0,) * 5, tuple(symbols)])
        assert str(raised.value) == want

    @given(st.sampled_from(SCHEMES), st.integers(0, 4),
           st.lists(st.one_of(st.integers(-2, 6), st.booleans(),
                              st.sampled_from([0.0, 1.0, 0.5])),
                    max_size=8))
    @settings(max_examples=400)
    def test_check_accepts_exactly_the_symbols(self, scheme, offset, symbols):
        first = scheme.start + offset
        ok = all(_is_symbol(s, scheme.size(n))
                 for n, s in enumerate(symbols, first))
        try:
            _check_symbols(scheme, first, symbols)
        except RangeError as e:
            assert not ok
            n, s = next((n, s) for n, s in enumerate(symbols, first)
                        if not _is_symbol(s, scheme.size(n)))
            assert str(e) == "symbol %r invalid at coordinate %d " \
                "(alphabet %d)" % (s, n, scheme.size(n))
        else:
            assert ok


class TestDistance:
    def test_exact_values(self):
        zero = make_point(BIN, (), 0, 0)
        for k in range(0, 9):
            y = make_point(BIN, {k: 1}, 0, 0)
            assert distance(zero, y) == Fraction(1, 2 ** k)
            ym = make_point(BIN, {-k: 1}, 0, 0)
            assert distance(zero, ym) == Fraction(1, 2 ** k)

    def test_tail_difference_detected(self):
        # windows agree everywhere; tails differ far out with long lcm
        a = make_point(BIN, (), periodic_tail((0, 0, 1)), 0)
        b = make_point(BIN, (), periodic_tail((0, 0, 0, 1)), 0)
        d = distance(a, b)
        assert 0 < d < 1
        k = 0
        while Fraction(1, 2 ** k) > d:
            k += 1
        assert a.value(k) != b.value(k)
        assert all(a.value(n) == b.value(n) for n in range(-k + 1, k))

    @given(binary_points(), binary_points())
    @settings(max_examples=100)
    def test_symmetry_and_identity(self, x, y):
        assert distance(x, y) == distance(y, x)
        assert (distance(x, y) == 0) == (x == y)
        assert distance(x, x) == 0

    @given(binary_points(), binary_points(), binary_points())
    @settings(max_examples=100)
    def test_ultrametric(self, x, y, z):
        assert distance(x, z) <= max(distance(x, y), distance(y, z))


# symbol-space systems whose schemes cover the kinds in SCHEMES:
# two-sided of 2 and 3 symbols, one-sided constant and cycling, index
CELL_SYSTEMS = (build_full_shift(2), build_full_shift(3), build_odometer((2,)),
                build_odometer((2, 3)), build_successor_map())


def system_pairs():
    """Strategy: a symbol-space system and a near pair on its scheme."""
    return st.sampled_from(CELL_SYSTEMS).flatmap(
        lambda s: st.tuples(st.just(s), near_pairs((s.scheme,))))


class TestDepthCell:
    @given(system_pairs(), st.integers(1, 14))
    @settings(max_examples=400)
    def test_matches_distance(self, drawn, depth):
        system, (_, x, y) = drawn
        expected = distance(x, y) <= Fraction(1, 2 ** depth)
        assert system.cell(x, depth)(y) == expected
        assert system.cell(y, depth)(x) == expected
        assert system.cell(x, depth)(y) == expected

    def test_first_disagreement_sets_the_depth(self):
        system = CELL_SYSTEMS[0]
        zero = make_point(system.scheme, (), 0, 0)
        for k in range(1, 6):
            y = make_point(system.scheme, {-k: 1}, 0, 0)
            assert system.cell(zero, k)(y)
            assert not system.cell(zero, k + 1)(y)


class TestReadSymbols:
    @given(st.sampled_from(SCHEMES).flatmap(scheme_points),
           st.integers(-8, 8), st.integers(0, 16))
    @settings(max_examples=300)
    def test_matches_value(self, x, offset, count):
        if x.scheme.kind == "one-sided":    # read from the start up
            offset = abs(offset)
        first = x.scheme.start + offset
        assert read_symbols(x, first, first + count - 1) == \
            [x.value(c) for c in range(first, first + count)]

    @given(st.sampled_from(SCHEMES).flatmap(scheme_points),
           st.sampled_from(["inside", "left-edge", "right-edge", "left-tail",
                            "right-tail", "both-tails"]),
           st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=400)
    def test_matches_value_by_region(self, x, region, a, b):
        # ranges inside the window, straddling one of its edges or both,
        # or wholly in one tail
        if region == "both-tails":
            lo, hi = x.lo - 1 - a, x.hi + 1 + b
        elif region == "inside":
            if x.lo > x.hi:
                return
            lo = x.lo + min(a, x.hi - x.lo)
            hi = lo + min(b, x.hi - lo)
        elif region == "left-edge":
            lo, hi = x.lo - 1 - a, x.lo + b
        elif region == "right-edge":
            lo, hi = x.hi - a, x.hi + 1 + b
        elif region == "left-tail":
            lo, hi = x.lo - 1 - a - b, x.lo - 1 - a
        else:
            lo, hi = x.hi + 1 + a, x.hi + 1 + a + b
        if x.scheme.kind == "one-sided" and lo < x.scheme.start:
            return
        assert read_symbols(x, lo, hi) == [x.value(c)
                                           for c in range(lo, hi + 1)]

    @given(st.sampled_from([(0,), (1,), (0, 1), (1, 1, 0), (0, 0, 1)]),
           st.sampled_from([(0,), (1,), (1, 0), (0, 1, 1), (1, 0, 0)]),
           st.lists(st.integers(0, 1), max_size=4), st.integers(-4, 4),
           st.sampled_from(["left-tail", "right-tail", "both-tails"]),
           st.integers(0, 7), st.integers(0, 13))
    @settings(max_examples=400)
    def test_tail_runs_of_periods_one_to_three(self, right, left, window,
                                               lo, region, a, b):
        x = make_point(BIN, window, right, left, lo=lo)
        assert (len(x.right), len(x.left)) == (len(right), len(left))
        if region == "left-tail":
            lo, hi = x.lo - 1 - a - b, x.lo - 1 - a
        elif region == "right-tail":
            lo, hi = x.hi + 1 + a, x.hi + 1 + a + b
        else:
            lo, hi = x.lo - 1 - a, x.hi + 1 + b
        assert read_symbols(x, lo, hi) == [x.value(c)
                                           for c in range(lo, hi + 1)]

    @pytest.mark.parametrize("x", [
        build_odometer().point("one"),
        make_point(Scheme("one-sided", start=2, alphabet="index"), (1,), 0)])
    def test_below_a_one_sided_start_raises_like_value(self, x):
        lo = x.scheme.start - 2
        with pytest.raises(RangeError) as by_value:
            x.value(lo)
        with pytest.raises(RangeError) as by_read:
            read_symbols(x, lo, x.scheme.start + 3)
        assert str(by_read.value) == str(by_value.value)


class TestCylinders:
    def test_membership(self):
        c = Cylinder(BIN, -1, 1, (0, 1, 0))
        x = make_point(BIN, (0, 1, 0), 1, 1, lo=-1)
        assert c.member(x)
        assert not c.member(make_point(BIN, (), 0, 0))

    def test_depth_cylinder(self):
        x = make_point(BIN, {0: 1, 1: 0, 2: 1}, 0, 0)
        c = depth_cylinder(x, 3)
        assert (c.lo, c.hi) == (-2, 2)
        assert c.pattern == (0, 0, 1, 0, 1)
        assert c.member(x)

    def test_full_cylinder(self):
        c = Cylinder(BIN, 0, -1, ())
        assert all(c.member(x) for x in sample_points())
        assert from_cylinder(c).is_full

    def test_pattern_width_checked(self):
        with pytest.raises(DomainError):
            Cylinder(BIN, 0, 2, (1, 0))


def sample_points():
    """All binary points with window [-2, 2] and constant tails."""
    out = []
    for pat in itertools.product((0, 1), repeat=5):
        for lt in (0, 1):
            for rt in (0, 1):
                out.append(make_point(BIN, pat, rt, lt, lo=-2))
    return out


SAMPLES = sample_points()


class TestClopenAlgebra:
    def test_canonicalization_drops_free_coordinate(self):
        a = clopen(BIN, 0, [(1,)])
        b = clopen(BIN, -1, [(0, 1), (1, 1)])
        assert a == b
        assert (b.lo, b.hi) == (0, 0)

    def test_full_and_empty(self):
        full = clopen(BIN, 0, [(0,), (1,)])
        assert full.is_full
        empty = clopen(BIN, 0, [])
        assert empty.is_empty
        assert complement(empty) == full
        assert complement(full) == empty
        assert all(full.member(x) for x in SAMPLES)
        assert not any(empty.member(x) for x in SAMPLES)

    def test_boolean_semantics_pointwise(self):
        a = clopen(BIN, 0, [(1,)])
        b = clopen(BIN, -1, [(0, 1), (1, 0)])
        c = clopen(BIN, 1, [(1, 1)])
        for x in SAMPLES:
            av, bv, cv = a.member(x), b.member(x), c.member(x)
            assert union(a, b).member(x) == (av or bv)
            assert intersection(a, b).member(x) == (av and bv)
            assert sym_diff(a, c).member(x) == (av != cv)
            assert complement(b).member(x) == (not bv)

    def test_de_morgan_structural(self):
        a = clopen(BIN, 0, [(1, 0), (1, 1)])
        b = clopen(BIN, -1, [(0, 1)])
        lhs = complement(union(a, b))
        rhs = intersection(complement(a), complement(b))
        assert lhs == rhs

    def test_double_complement(self):
        a = clopen(BIN, -1, [(0, 1), (1, 0)])
        assert complement(complement(a)) == a

    def test_window_cap(self):
        a = clopen(BIN, 0, [(1,)])
        b = clopen(BIN, 30, [(1,)])
        with pytest.raises(ResourceCapError):
            union(a, b)

    @pytest.mark.parametrize("op", [union, intersection, sym_diff])
    def test_schemes_must_match(self, op):
        three = Scheme("two-sided", alphabet=3)
        for a, b in ((clopen(BIN, 0, [(1,)]), clopen(three, 0, [(2,)])),
                     (clopen(BIN, 0, []), clopen(three, 0, [(2,)])),
                     (clopen(BIN, 0, [(1,)]), clopen(three, 0, []))):
            with pytest.raises(DomainError, match="different schemes"):
                op(a, b)

    def test_mixed_width_rejected(self):
        with pytest.raises(DomainError):
            clopen(BIN, 0, [(1,), (0, 1)])


# ---------------------------------------------------------------------------
# the canonical clopen forms against the grouping algorithm


def grouping_canonical(scheme, lo, hi, pats):
    """The clopen canonical form as first written: group the patterns by
    residual at an edge, drop the edge while every group holds the whole
    alphabet, and repeat.  Kept as the oracle for the counting test and
    for the operations that skip the trimming pass.  It works on pattern
    tuples and returns ``form`` of the set it finds."""
    pats = frozenset(pats)
    while lo <= hi:
        for left in (True, False):
            groups = {}
            for p in pats:
                rest, sym = (p[1:], p[0]) if left else (p[:-1], p[-1])
                groups.setdefault(rest, set()).add(sym)
            size = scheme.size(lo if left else hi)
            if all(len(s) == size for s in groups.values()):
                pats = frozenset(groups)
                lo, hi = (lo + 1, hi) if left else (lo, hi - 1)
                break
        else:
            break
    if lo > hi:
        anchor = scheme.start if scheme.kind == "one-sided" else 0
        return (scheme, anchor, anchor - 1,
                frozenset({()}) if pats else frozenset())
    return (scheme, lo, hi, pats)


def form(c):
    """A clopen set as (scheme, window, decoded patterns), the terms
    the tuple oracles compare in."""
    return (c.scheme, c.lo, c.hi, c.patterns)


def window_patterns(scheme, lo, hi):
    return list(itertools.product(*[range(scheme.size(n))
                                    for n in range(lo, hi + 1)]))


def grouping_expand(c, lo, hi):
    """Every pattern on lo..hi whose restriction to c's window c admits."""
    return frozenset(p for p in window_patterns(c.scheme, lo, hi)
                     if p[c.lo - lo:c.hi - lo + 1] in c.patterns)


CLOPEN_SCHEMES = (BIN, Scheme("two-sided", alphabet=3),
                  Scheme("one-sided", start=1, alphabet=(2, 3)),
                  Scheme("one-sided", start=2, alphabet="index"))


@st.composite
def clopen_pairs(draw, schemes=CLOPEN_SCHEMES):
    """Two clopen sets on one scheme, each any subset of the patterns on
    a window of up to 3 coordinates (4 on the binary scheme), or the
    complement of one, so free edge coordinates, empty or full sets and
    sets held by either side turn up often."""
    scheme = draw(st.sampled_from(schemes))
    anchor = scheme.start if scheme.kind == "one-sided" else 0
    out = []
    for _ in range(2):
        lo = draw(st.integers(anchor, anchor + 2))
        width = draw(st.integers(0, 4 if scheme == BIN else 3))
        universe = window_patterns(scheme, lo, lo + width - 1)
        keep = draw(st.lists(st.booleans(), min_size=len(universe),
                             max_size=len(universe)))
        pats = [p for p, k in zip(universe, keep) if k]
        c = (clopen(scheme, lo, pats) if width else
             (clopen(scheme, lo, [(0,), (1,)]) if keep[0]
              else clopen(scheme, lo, [])))
        out.append(complement(c) if draw(st.booleans()) else c)
    return tuple(out)


class TestCanonicalFormsAgainstGrouping:
    @given(clopen_pairs())
    @settings(max_examples=300)
    def test_clopen_is_the_grouping_form(self, pair):
        for c in pair:
            if c.lo <= c.hi:
                assert grouping_canonical(c.scheme, c.lo, c.hi,
                                          c.patterns) == form(c)

    @given(clopen_pairs())
    @settings(max_examples=300)
    def test_boolean_operations(self, pair):
        a, b = pair
        windows = [(c.lo, c.hi) for c in (a, b) if c.lo <= c.hi]
        if windows:
            lo = min(w[0] for w in windows)
            hi = max(w[1] for w in windows)
        else:
            lo, hi = a.lo, a.hi
        a2, b2 = grouping_expand(a, lo, hi), grouping_expand(b, lo, hi)
        for op, want in ((union, a2 | b2), (intersection, a2 & b2),
                         (sym_diff, a2 ^ b2)):
            assert form(op(a, b)) == grouping_canonical(a.scheme, lo, hi,
                                                        want)

    @given(clopen_pairs())
    @settings(max_examples=300)
    def test_complement(self, pair):
        for c in pair:
            universe = frozenset(window_patterns(c.scheme, c.lo, c.hi))
            assert form(complement(c)) == grouping_canonical(
                c.scheme, c.lo, c.hi, universe - c.patterns)

    @given(clopen_pairs((BIN,)),
           st.frozensets(st.integers(-1, 6)))
    @settings(max_examples=300)
    def test_flip_region(self, pair, flips):
        for c in pair:
            flipped = [tuple(1 - s if n in flips else s
                             for n, s in enumerate(p, c.lo))
                       for p in c.patterns]
            if c.lo <= c.hi:
                want = grouping_canonical(BIN, c.lo, c.hi, flipped)
            else:
                want = form(c)
            assert form(_flip_region(c, flips)) == want


class TestPatternCodes:
    """A pattern's code is its index among the window's patterns in
    lexicographic order (``itertools.product`` order)."""

    @given(clopen_pairs())
    @settings(max_examples=300)
    def test_codes_index_the_window_patterns(self, pair):
        for c in pair:
            universe = window_patterns(c.scheme, c.lo, c.hi)
            assert all(0 <= k < len(universe) for k in c.codes)
            admitted = (frozenset(range(len(universe))) - c.codes
                        if c.complemented else c.codes)
            assert c.patterns == frozenset(universe[k] for k in admitted)
            assert [universe[k] for k in sorted(admitted)] == \
                sorted(c.patterns)
            assert c.to_json()["patterns"] == \
                sorted(list(p) for p in c.patterns)
            if c.lo <= c.hi:
                assert clopen(c.scheme, c.lo, c.patterns) == c

    def test_patterns_are_decoded_afresh(self):
        c = clopen(BIN, 0, [(1, 0), (0, 1)])
        assert c.codes == frozenset({1, 2})
        assert c.patterns == frozenset({(1, 0), (0, 1)})
        assert c.patterns is not c.patterns
        assert "patterns" not in vars(c)

    def test_wide_complement_raises_before_enumerating(self):
        wide = clopen(BIN, 0, [(1,) * 22])
        start = time.perf_counter()
        with pytest.raises(ResourceCapError,
                           match="pattern enumeration exceeds cap"):
            complement(wide)
        assert time.perf_counter() - start < 1.0

    def test_width_18_complement(self):
        # half admits 131,073 of the 262,144 patterns, so it holds the
        # 131,071 it excludes, and its complement holds the same codes
        half = union(clopen(BIN, 0, [(0,)]), clopen(BIN, 0, [(1,) * 18]))
        assert (half.lo, half.hi, half.complemented, len(half.codes)) == \
            (0, 17, True, 131071)
        rest = complement(half)
        assert (rest.complemented, rest.codes) == (False, half.codes)
        assert len(rest.patterns) == 131071


class TestHeldSide:
    """A set holds the smaller side of its window: the admitted codes,
    or the excluded ones when ``complemented``, the admitted on a tie."""

    @given(clopen_pairs())
    @settings(max_examples=300)
    def test_held_side_is_never_the_larger(self, pair):
        a, b = pair
        for c in (a, b, union(a, b), intersection(a, b), sym_diff(a, b),
                  complement(a), complement(b)):
            total = len(window_patterns(c.scheme, c.lo, c.hi))
            admitted = len(c.patterns)
            assert c.complemented == (2 * admitted > total)
            assert 2 * len(c.codes) <= total
            assert repr(c) == "<clopen [%d..%d] %d patterns>" % (
                c.lo, c.hi, admitted)

    def test_double_complement_enumerates_nothing(self):
        a = clopen(BIN, 0, [(1,) * 21])
        start = time.perf_counter()
        c = complement(a)
        back = complement(c)
        assert time.perf_counter() - start < 0.05
        assert c.complemented and c.codes == a.codes
        assert back == a and hash(back) == hash(a)

    def test_complemented_patterns_are_decoded_afresh(self):
        c = complement(clopen(BIN, 0, [(1, 0)]))
        assert c.complemented and c.codes == frozenset({2})
        assert c.patterns == frozenset({(0, 0), (0, 1), (1, 1)})
        assert c.patterns is not c.patterns
        assert "patterns" not in vars(c)

    def test_flip_of_a_complemented_region(self):
        d = complement(clopen(BIN, -1, [(0, 1, 1)]))
        flips = frozenset({-1, 1, 5})
        image = _flip_region(d, flips)
        want = clopen(BIN, -1, [tuple(1 - s if n in flips else s
                                      for n, s in enumerate(p, -1))
                                for p in d.patterns])
        assert d.complemented and image.complemented
        assert image == want

    def test_held_sides_answer_past_the_expansion_cap(self):
        # the complement admits 2^21 - 1 patterns on 0..20; widened to
        # 0..23 they would be 8 times as many, but only 8 are held
        a = complement(clopen(BIN, 0, [(1,) * 21]))
        b = clopen(BIN, 3, [(1,) * 21])
        ones = clopen(BIN, 0, [(1,) * 24])
        assert intersection(a, b) == sym_diff(b, ones)
        # the union holds 7 codes but admits 2^24 - 7 patterns
        with pytest.raises(ResourceCapError,
                           match="pattern enumeration exceeds cap"):
            union(a, b)


def value_probe(c, x):
    """``ClopenSet.member`` as first written: one ``Point.value`` per
    window coordinate.  Kept as the oracle for the one-read form."""
    return tuple(x.value(n) for n in range(c.lo, c.hi + 1)) in c.patterns


class TestMembershipAgainstValueProbe:
    @given(clopen_pairs(SCHEMES), st.data())
    @settings(max_examples=300)
    def test_member_matches_value_probe(self, pair, data):
        for c in pair:
            x = data.draw(scheme_points(c.scheme))
            assert c.member(x) == value_probe(c, x)

    @pytest.mark.parametrize("scheme", [s for s in SCHEMES
                                        if s.kind == "one-sided"])
    def test_below_a_one_sided_window_raises_like_value(self, scheme):
        c = ClopenSet(scheme, scheme.start - 1, scheme.start,
                      frozenset({0}))     # the code of the pattern (0, 0)
        x = make_point(scheme, (1,), 0)
        with pytest.raises(RangeError) as by_probe:
            value_probe(c, x)
        with pytest.raises(RangeError) as by_member:
            c.member(x)
        assert str(by_member.value) == str(by_probe.value)
