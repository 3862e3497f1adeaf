"""Finite-horizon analyzers.  Return structures are derived from
independent oracles (2-adic valuations, popcount words) before the
verdicts are checked, and certificates are frozen exactly."""

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerodim import cantor, cli, flows
from zerodim.analysis import (InvariantCoreApprox, _cells, _first_hit,
                              _first_least, _params,
                              _syndetic_search, ap_verdict,
                              confinement_verdict, depth_ball,
                              equicontinuity_verdict, escape_length,
                              invariant_core, orbit_cylinders,
                              orbit_symmetry_verdict, pair_type1_verdict,
                              pointwise_period_verdict, proximal_verdict,
                              regional_proximal_check, regular_ap_verdict,
                              return_times, standard_rp_witness,
                              translate_cover_verdict, type1_verdict,
                              type2_verdict, uniform_recurrence_verdict,
                              usc_verdict, weak_rigidity_verdict)
from zerodim.cantor import (ClopenSet, Cylinder, Point, Scheme, clopen,
                            depth_cylinder, from_cylinder, make_point,
                            periodic_tail, read_symbols)
from zerodim.errors import DomainError, PreconditionError
from zerodim.flows import (FlowSystem, McMahonGroup, TwoCopyGroup,
                           build_mcmahon, build_two_copy, get_system)
from zerodim.groups import IntegerGroup, cone_layer, power_set, word_length
from zerodim.verdict import fails, holds, inconclusive

OD = get_system("odometer")
TM = get_system("thue-morse")
FS = get_system("full-shift")
SM = get_system("successor-map")
CS = get_system("circle-stack")
CC = get_system("circle-stack-components")
TC = get_system("two-copy")


def length_ordered(group, radius: int) -> list:
    """Elements of word length <= radius in (length, ``sort_key``)
    order, identity first: the order a ball walk meets them in."""
    return sorted(power_set(group, radius),
                  key=lambda g: (word_length(group, g), group.sort_key(g)))


def tm_bit(i: int) -> int:
    return bin(i).count("1") % 2


def tm_value(c: int) -> int:
    """Coordinate c of the mirror-extension point."""
    return tm_bit(c) if c >= 0 else tm_bit(-c - 1)


def tm_returns_oracle(depth: int, span: int) -> tuple:
    """Shifts whose translated depth window matches the original,
    computed straight from the popcount formula."""
    offs = range(-(depth - 1), depth)
    base = [tm_value(j) for j in offs]
    return tuple(n for n in range(-span, span + 1)
                 if n != 0 and [tm_value(n + j) for j in offs] == base)


def reference_syndetic_search(tset: set, horizon: int, kmax: int) -> tuple:
    """Oracle: try each window length k in turn against every window
    inside [-horizon, horizon]."""
    for k in range(1, kmax + 1):
        if all(any(n in tset for n in range(g, g + k))
               for g in range(-horizon, horizon - k + 2)):
            return k, None
    return None, next(g for g in range(-horizon, horizon - kmax + 2)
                      if all(n not in tset for n in range(g, g + kmax)))


@st.composite
def return_sets(draw):
    """A horizon and a return set over ap_verdict's span that holds 0:
    random sets (mostly sparse, so FAILS is common) or the multiples of
    a modulus with a few dropped (mostly HOLDS)."""
    horizon = draw(st.integers(2, 40))
    span = horizon + horizon // 2
    if draw(st.booleans()):
        tset = draw(st.sets(st.integers(-span, span)))
    else:
        step = draw(st.integers(1, horizon))
        dropped = draw(st.sets(st.integers(-span, span), max_size=4))
        tset = set(range(-(span // step) * step, span + 1, step)) - dropped
    return horizon, tset | {0}


class TestReturnTimes:
    def test_odometer_against_valuation_oracle(self):
        zero = OD.point("zero")
        for d in (1, 2, 3):
            got = return_times(OD, zero, d, -20, 20)
            want = tuple(n for n in range(-20, 21)
                         if n != 0 and n % (2 ** d) == 0)
            assert got == want
        assert return_times(OD, zero, 2, -8, 8) == (-8, -4, 4, 8)

    def test_thue_morse_against_popcount_oracle(self):
        r = TM.point("reflection")
        for d in (1, 2, 3):
            assert return_times(TM, r, d, -40, 40) == tm_returns_oracle(d, 40)

    def test_word_group_rejected(self):
        t2 = build_two_copy(3)
        with pytest.raises(DomainError):
            return_times(t2, t2.point("o-plus"), 2, -4, 4)


class TestAlmostPeriodic:
    def test_odometer_bound_is_the_level_gap(self):
        zero = OD.point("zero")
        for d in range(1, 5):
            v = ap_verdict(OD, zero, horizon=4 * 2 ** d, depth=d)
            assert v.holds
            assert v.certificate["syndetic_bound"] == 2 ** d
            assert v.certificate["max_gap_in_span"] == 2 ** d

    def test_odometer_frozen_certificate(self):
        v = ap_verdict(OD, OD.point("zero"), horizon=8, depth=2)
        assert v.certificate == {
            "syndetic_bound": 4, "max_gap_in_span": 4,
            "return_count": 6,
            "first_returns": [-12, -8, -4, 4, 8, 12]}

    def test_thue_morse_depth_two(self):
        v = ap_verdict(TM, TM.point("reflection"), horizon=24, depth=2)
        assert v.holds and v.certificate["syndetic_bound"] == 8

    def test_thue_morse_depth_three_needs_wider_window(self):
        r = TM.point("reflection")
        narrow = ap_verdict(TM, r, horizon=32, depth=3)
        assert narrow.fails
        assert narrow.certificate["empty_window_start"] == 7
        assert narrow.certificate["empty_window_length"] == 16
        # the oracle confirms: no depth-3 return inside [7, 23)
        times = set(tm_returns_oracle(3, 48)) | {0}
        assert not any(n in times for n in range(7, 23))
        wide = ap_verdict(TM, r, horizon=48, depth=3)
        assert wide.holds and wide.certificate["syndetic_bound"] == 18
        gaps = [b - a for a, b in zip(sorted(times), sorted(times)[1:])
                if -48 <= a and b <= 48]
        assert max(gaps) == 18

    def test_single_spike_never_returns(self):
        x = FS.family("single", 0)
        assert return_times(FS, x, 1, -200, 200) == ()
        v = ap_verdict(FS, x, horizon=200, depth=1)
        assert v.fails
        assert v.certificate["empty_window_start"] == -200
        assert v.certificate["empty_window_length"] == 100
        assert v.certificate["returns_in_span"] == []

    @given(return_sets())
    @example((2, {0}))
    @example((2, {-2, -1, 0, 1, 2}))
    @example((3, {0, 3, -3}))
    @settings(max_examples=400)
    def test_linear_syndetic_search_matches_the_window_loop(self, case):
        horizon, tset = case
        kmax = horizon // 2
        assert _syndetic_search(sorted(tset), horizon, kmax) == \
            reference_syndetic_search(tset, horizon, kmax)

    def test_horizon_validation(self):
        with pytest.raises(PreconditionError):
            ap_verdict(OD, OD.point("zero"), horizon=1, depth=2)
        with pytest.raises(PreconditionError):
            ap_verdict(OD, OD.point("zero"), horizon=8, depth=0)


def reference_regular_ap(system, x, *, horizon, depth):
    """Oracle: the return set over the whole of [-horizon, horizon],
    one act per shift through ``return_times``, then the least modulus
    whose multiples all lie in it."""
    name = "regular-return"
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth)
    tset = set(return_times(system, x, depth, -horizon, horizon))
    obstructions = []
    for kappa in range(1, horizon + 1):
        missing = next((kappa * j * sgn
                        for j in range(1, horizon // kappa + 1)
                        for sgn in (1, -1)
                        if kappa * j * sgn not in tset), None)
        if missing is None:
            return holds(name, params, {
                "modulus": kappa,
                "multiples_verified": 2 * (horizon // kappa),
            })
        if len(obstructions) < 12:
            obstructions.append([kappa, missing])
    return fails(name, params, {
        "obstructions": obstructions,
        "moduli_checked": horizon,
    })


@st.composite
def regular_cases(draw):
    """``(system, point, horizon, depth)`` for h in 1..80, d in 1..5: an
    odometer digit point, an eventually periodic full-shift point (a
    ``single`` spike among them), a thue-morse reflection exact on
    [-R, R] with R >= h + d, or a named successor-map, circle-stack or
    component point."""
    horizon, depth = draw(st.integers(1, 80)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("odometer", "full-shift", "single",
                                 "thue-morse", "named")))
    bits = st.integers(0, 1)
    tails = st.lists(bits, min_size=1, max_size=4).map(periodic_tail)
    if kind == "odometer":
        digits = draw(st.lists(bits, max_size=10))
        return OD, make_point(OD.scheme, digits, right=draw(tails)), \
            horizon, depth
    if kind == "full-shift":
        x = make_point(FS.scheme, draw(st.lists(bits, max_size=8)),
                       draw(tails), draw(tails), lo=draw(st.integers(-6, 6)))
        return FS, x, horizon, depth
    if kind == "single":
        return FS, FS.family("single", draw(st.integers(-90, 90))), \
            horizon, depth
    if kind == "thue-morse":
        radius = horizon + depth + draw(st.integers(0, 4))
        family = draw(st.sampled_from(("reflection", "reflection-flipped")))
        return TM, TM.family(family, radius), horizon, depth
    system = draw(st.sampled_from((SM, CS, CC)))
    x = system.point(draw(st.sampled_from(system.point_names())))
    return system, x, horizon, depth


class TestRegularReturns:
    @given(regular_cases())
    @example((FS, FS.family("single", 3), 40, 2))
    @example((OD, OD.point("minus-one"), 20, 5))
    @example((SM, SM.point("unit"), 80, 5))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_full_return_set(self, case):
        system, x, horizon, depth = case
        got = regular_ap_verdict(system, x, horizon=horizon, depth=depth)
        assert got.to_json() == reference_regular_ap(
            system, x, horizon=horizon, depth=depth).to_json()

    def test_word_group_rejected(self):
        with pytest.raises(DomainError, match="integer acting group"):
            regular_ap_verdict(TC, TC.point("o-plus"), horizon=4, depth=2)

    def test_odometer_modulus_stable_across_horizons(self):
        zero = OD.point("zero")
        for d in (1, 2, 3):
            for H in (8 * 2 ** d, 16 * 2 ** d):
                v = regular_ap_verdict(OD, zero, horizon=H, depth=d)
                assert v.holds
                assert v.certificate["modulus"] == 2 ** d
                assert v.certificate["multiples_verified"] == \
                    2 * (H // 2 ** d)

    def test_thue_morse_modulus_is_a_horizon_artifact(self):
        # a large modulus always slips through with only one multiple
        # verified per direction; the certificate exposes the thin
        # evidence and the reported modulus drifts as the horizon grows
        r = TM.point("reflection")
        reported = []
        for H in (24, 36, 48):
            v = regular_ap_verdict(TM, r, horizon=H, depth=2)
            assert v.holds
            assert v.certificate["multiples_verified"] == 2
            reported.append(v.certificate["modulus"])
        assert reported == [18, 24, 30]

    def test_fixed_point_has_modulus_one(self):
        v = regular_ap_verdict(FS, FS.point("zero"), horizon=8, depth=2)
        assert v.holds and v.certificate["modulus"] == 1


class TestPointwisePeriod:
    def test_successor_dial_periods(self):
        for c in (2, 3, 5):
            x = SM.family("unit-at", c)
            v = pointwise_period_verdict(SM, x, period_max=16)
            assert v.holds and v.certificate["period"] == c + 1

    def test_fixed_point_period_one(self):
        v = pointwise_period_verdict(SM, SM.point("zero"), period_max=4)
        assert v.holds and v.certificate["period"] == 1

    def test_cap_reports_inconclusive(self):
        v = pointwise_period_verdict(SM, SM.family("unit-at", 20),
                                     period_max=10)
        assert v.inconclusive
        assert v.certificate["tested_through"] == 10


class TestTwoSidedRecurrence:
    def test_reflections_individually_recur(self):
        for name in ("reflection", "reflection-flipped"):
            v = type1_verdict(TM, TM.point(name), horizon=32, depth=1)
            assert v.holds
        v = type1_verdict(TM, TM.point("reflection-flipped"),
                          horizon=32, depth=1)
        assert v.certificate == {"forward": 3, "backward": -2}

    def test_pair_recurrence_takes_the_nearest_common_return(self):
        # oracle: x + n agrees with x on d digits iff 2^d divides n
        for d in (1, 2, 3):
            v = pair_type1_verdict(OD, OD.point("zero"), OD.point("one"),
                                   horizon=4 * 2 ** d, depth=d)
            assert v.holds
            assert v.certificate == {"forward": 2 ** d, "backward": -2 ** d}

    def test_pair_recurrence_fails_backward(self):
        v = pair_type1_verdict(TM, TM.point("reflection"),
                               TM.point("reflection-flipped"),
                               horizon=32, depth=1)
        assert v.fails
        assert v.certificate == {"missing_directions": ["backward"],
                                 "forward": 3, "backward": None}
        # oracle: left of the origin both points carry the same symbols
        # while their origin symbols differ, so one backward shift can
        # never return both to their own cells at once
        r, rf = TM.point("reflection"), TM.point("reflection-flipped")
        for n in range(-32, 0):
            assert r.value(n) == rf.value(n) == tm_value(n)
        assert r.value(0) != rf.value(0)

    def test_single_spike_fails_both_directions(self):
        v = type1_verdict(FS, FS.family("single", 0), horizon=200, depth=1)
        assert v.fails
        assert v.certificate == {
            "missing_directions": ["forward", "backward"],
            "forward": None, "backward": None}


def odometer_digits(seed: int):
    """A seeded odometer point with exactly eight explicit digits."""
    rng = random.Random(seed)
    digits = [rng.randrange(2) for _ in range(7)] + [1]
    return make_point(OD.scheme, digits, right=0)


class TestReturnTestWork:
    """Deterministic work counts, so a slide back to rebuilding a point
    per shift or to exact distances per return test fails even where
    wall-clock timing is noisy."""

    LONG = TM.family("reflection", 600)
    ODOMETER_POINTS = {
        "eight-digits": odometer_digits(8),
        "zero": OD.point("zero"),
        "minus-one": OD.point("minus-one"),
    }

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"make_point": 0, "distance": 0, "read_symbols": 0,
                  "FlowSystem.distance": 0, "FlowSystem.act": 0,
                  "FlowSystem.returns": 0, "Scheme.size": 0,
                  "Point.value": 0, "symbols_read": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                out = fn(*args, **kwargs)
                if name == "read_symbols":
                    counts["symbols_read"] += len(out)
                return out
            return counted

        # rebind every name a zerodim module holds the function under
        for name in ("make_point", "distance", "read_symbols"):
            original = getattr(cantor, name)
            wrapped = counting(name, original)
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("zerodim"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, wrapped)
        for name in ("distance", "act", "returns"):
            monkeypatch.setattr(FlowSystem, name, counting(
                "FlowSystem." + name, getattr(FlowSystem, name)))
        monkeypatch.setattr(Scheme, "size",
                            counting("Scheme.size", Scheme.size))
        monkeypatch.setattr(Point, "value",
                            counting("Point.value", Point.value))
        return counts

    def test_long_full_shift_scan_reads_the_point_once_per_call(self,
                                                               counts):
        alternating = FS.point("alternating")
        v = ap_verdict(FS, alternating, horizon=4096, depth=6)
        assert v.holds and v.certificate["syndetic_bound"] == 2
        v = type1_verdict(FS, alternating, horizon=4096, depth=6)
        assert v.holds
        assert counts["FlowSystem.returns"] == 3
        assert counts["read_symbols"] == counts["FlowSystem.returns"]
        assert counts["Point.value"] == 0
        assert counts["FlowSystem.act"] == 0
        assert counts["make_point"] == 0

    @pytest.mark.parametrize("name", ["alternating", "zero"])
    def test_early_exit_scans_read_a_bounded_stretch(self, counts, name):
        # a word wholly in a tail repeats with the tail's period, so the
        # read is bounded by the window, the depth and the periods, not
        # by the horizon
        x = FS.point(name)
        horizon = 10 ** 8
        type1_verdict(FS, x, horizon=horizon, depth=6)
        pair_type1_verdict(FS, x, FS.point("alternating"),
                           horizon=horizon, depth=6)
        weak_rigidity_verdict(FS, [x, FS.point("zero")], horizon=horizon,
                              depth=6)
        # at most one read per call: an empty range reads nothing
        assert counts["read_symbols"] <= counts["FlowSystem.returns"]
        assert counts["symbols_read"] <= 64 * counts["read_symbols"]
        assert counts["Point.value"] == 0

    def test_pair_scan_acts_on_the_second_point_only_at_returns(self,
                                                                  counts):
        # the odometer acts per shift; zero returns to depth 2 at the
        # multiples of 4, so each direction acts on it at 1..4 and on
        # one only at the candidate 4
        v = pair_type1_verdict(OD, OD.point("zero"), OD.point("one"),
                               horizon=8, depth=2)
        assert v.certificate == {"forward": 4, "backward": -4}
        assert counts["FlowSystem.act"] == 2 * (4 + 1)
        v = weak_rigidity_verdict(OD, [OD.point("zero"), OD.point("one")],
                                  horizon=8, depth=2)
        assert v.certificate["shift"] == 4
        # forward as above, then backward through -3 only
        assert counts["FlowSystem.act"] == 2 * (4 + 1) + (4 + 1) + 3

    def test_type1_on_a_long_window_builds_nothing(self, counts):
        v = type1_verdict(TM, self.LONG, horizon=512, depth=4)
        assert v.holds and counts["FlowSystem.act"] == 0
        assert counts["make_point"] == 0
        assert counts["distance"] == 0
        assert counts["FlowSystem.distance"] == 0

    def test_ap_on_a_long_window_builds_nothing(self, counts):
        v = ap_verdict(TM, self.LONG, horizon=256, depth=4)
        assert v.holds and counts["FlowSystem.act"] == 0
        assert counts["make_point"] == 0
        assert counts["distance"] == 0
        assert counts["FlowSystem.distance"] == 0

    @pytest.mark.parametrize("name", sorted(ODOMETER_POINTS))
    @pytest.mark.parametrize("verdict", [ap_verdict, type1_verdict])
    def test_odometer_scan_builds_nothing(self, counts, verdict, name):
        x = self.ODOMETER_POINTS[name]
        v = verdict(OD, x, horizon=512, depth=4)
        # one act per nonzero shift scanned: all of [-768, 768] for the
        # syndetic search, up to the first return (+-16) for two-sided
        acts = 2 * 768 if verdict is ap_verdict else 2 * 16
        assert v.holds and counts["FlowSystem.act"] == acts
        assert counts["make_point"] == 0
        assert counts["Scheme.size"] == 0
        assert counts["distance"] == 0
        # x and every acted point are read over the depth window
        assert counts["Point.value"] == 0

    @pytest.mark.parametrize("name, horizon, depth, acts", [
        ("zero", 8, 2, 7), ("one", 512, 4, 79), ("minus-one", 4096, 6, 191)])
    def test_odometer_regular_return_acts_at_the_multiples_asked(
            self, counts, name, horizon, depth, acts):
        # each modulus below 2^d misses at its first multiple, one act
        # each; 2^d then holds at both signs of every multiple
        modulus = 2 ** depth
        v = regular_ap_verdict(OD, OD.point(name), horizon=horizon,
                               depth=depth)
        assert v.holds and v.certificate["modulus"] == modulus
        assert counts["FlowSystem.act"] == acts == \
            modulus - 1 + 2 * (horizon // modulus)
        assert counts["FlowSystem.returns"] == 0

    @pytest.mark.parametrize("system, x", [
        (FS, FS.point("alternating")), (FS, FS.family("single", 5)),
        (TM, LONG)])
    def test_shift_regular_return_reads_once(self, counts, system, x):
        regular_ap_verdict(system, x, horizon=256, depth=4)
        assert counts["FlowSystem.act"] == 0
        assert counts["read_symbols"] == 1
        assert counts["make_point"] == 0

    @pytest.mark.parametrize("name", sorted(ODOMETER_POINTS))
    def test_odometer_scan_steps_the_orbit(self, counts, monkeypatch, name):
        # only the first nonzero shift of a ``returns`` call is acted
        # from x; every later one steps the point before it by +-1
        moves = []
        act = FlowSystem.act

        def recording(system, g, x):
            moves.append(g)
            return act(system, g, x)

        monkeypatch.setattr(FlowSystem, "act", recording)
        v = ap_verdict(OD, self.ODOMETER_POINTS[name], horizon=512, depth=4)
        assert v.holds and len(moves) == 2 * 768
        assert sum(abs(g) > 1 for g in moves) <= \
            counts["FlowSystem.returns"]


def reference_type2(system, x, *, horizon, depth):
    """The analyzer's earlier body: it built each g's cone layer and
    acted on every member, in (length, sort_key) order."""
    group = system.group
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth, schedule_length=horizon)
    minima = []
    for g in range(1, horizon + 1):
        layer = cone_layer(group, g)
        best = None
        for c in sorted(layer, key=lambda h: (word_length(group, h),
                                              group.sort_key(h))):
            if system.cell(system.act(c, x), depth)(x):
                best = word_length(group, c)
                break
        minima.append((g, best))
    tail = minima[len(minima) // 2:]
    undetermined = [g for g, b in tail if b is None]
    name = "cone-subnet-recurrence"
    if undetermined:
        return fails(name, params, {
            "no_return_in_cone_of": group.format_element(undetermined[0]),
            "tail_length": len(tail),
        })
    n_star = max(b for _, b in tail)
    cert = {
        "subnet_bound": n_star,
        "allowed": horizon // 2,
        "tail_minima": [[group.format_element(g), b] for g, b in tail[:8]],
    }
    return (holds if n_star <= horizon // 2 else fails)(name, params, cert)


@st.composite
def type2_cases(draw):
    """An eventually periodic full-shift point or a seeded odometer
    digit point, with a horizon and a depth."""
    horizon = draw(st.sampled_from((1, 2, 3, 8, 33)))
    depth = draw(st.sampled_from((1, 2, 3, 5)))
    if draw(st.booleans()):
        return OD, odometer_digits(draw(st.integers(0, 2 ** 16))), \
            horizon, depth
    bits = st.integers(0, 1)
    tails = [periodic_tail(draw(st.lists(bits, min_size=1, max_size=3)))
             for _ in range(2)]
    x = make_point(FS.scheme, draw(st.lists(bits, max_size=8)),
                   right=tails[0], left=tails[1], lo=draw(st.integers(-6, 2)))
    return FS, x, horizon, depth


class TestConeSubnetRecurrence:
    @pytest.mark.parametrize("system", [OD, TM, FS, SM, CS, CC],
                             ids=lambda s: s.system_id)
    def test_matches_the_cone_building_oracle(self, system):
        for name in system.point_names():
            x = system.point(name)
            for horizon, depth in ((1, 1), (8, 2), (21, 1), (21, 3)):
                got = type2_verdict(system, x, horizon=horizon, depth=depth)
                want = reference_type2(system, x, horizon=horizon,
                                       depth=depth)
                assert got.to_json() == want.to_json()

    def test_acts_on_each_candidate_once(self, monkeypatch):
        acts = []
        act = FlowSystem.act
        monkeypatch.setattr(FlowSystem, "act",
                            lambda self, g, x: acts.append(g) or
                            act(self, g, x))
        v = type2_verdict(OD, OD.point("one"), horizon=64, depth=3)
        assert v.holds and v.certificate["subnet_bound"] == 8
        # 8 is the first return, and every cone of g >= 5 holds it: one
        # forward returns walk, act(1, x) and then act(1, .) of the point
        # before, up to 8; reference_type2 acts 496 times here
        assert acts == [1] * 8

    def test_one_returns_query_and_no_act(self, monkeypatch):
        calls = {"returns": 0, "act": 0}
        returns, act = FlowSystem.returns, FlowSystem.act

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(FlowSystem, "returns", counted("returns", returns))
        monkeypatch.setattr(FlowSystem, "act", counted("act", act))
        v = type2_verdict(FS, FS.point("step"), horizon=1024, depth=3)
        assert v.fails and v.certificate == {
            "no_return_in_cone_of": "513", "tail_length": 512}
        # the shift answers the query over 1..2047 without acting
        assert calls == {"returns": 1, "act": 0}

    @given(type2_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracle_on_drawn_points(self, case):
        system, x, horizon, depth = case
        got = type2_verdict(system, x, horizon=horizon, depth=depth)
        want = reference_type2(system, x, horizon=horizon, depth=depth)
        assert got.to_json() == want.to_json()

    def test_odometer_bound(self):
        v = type2_verdict(OD, OD.point("zero"), horizon=16, depth=2)
        assert v.holds
        assert v.certificate["subnet_bound"] == 4
        assert v.certificate["allowed"] == 8

    def test_fixed_point_bound_one(self):
        v = type2_verdict(FS, FS.point("zero"), horizon=8, depth=2)
        assert v.holds and v.certificate["subnet_bound"] == 1

    def test_step_point_has_empty_cones(self):
        v = type2_verdict(FS, FS.point("step"), horizon=8, depth=2)
        assert v.fails
        assert v.certificate["no_return_in_cone_of"] == "5"

    def test_single_spike_fails(self):
        v = type2_verdict(FS, FS.family("single", 0), horizon=8, depth=1)
        assert v.fails


class TestWeakRigidity:
    def test_odometer_joint_shift(self):
        v = weak_rigidity_verdict(OD, [OD.point("zero"), OD.point("one")],
                                  horizon=16, depth=3)
        assert v.holds
        assert v.certificate == {"shift": 8, "points": 2}

    def test_single_point(self):
        v = weak_rigidity_verdict(OD, [OD.point("zero")],
                                  horizon=4, depth=1)
        assert v.holds and v.certificate["shift"] == 2

    def test_empty_list_rejected(self):
        with pytest.raises(PreconditionError):
            weak_rigidity_verdict(OD, [], horizon=4, depth=1)


class TestEscapeAndConfinement:
    def test_escape_length(self):
        U = depth_ball(FS.point("zero"), 1)
        hit = escape_length(FS, FS.family("single", 3), U, horizon=6)
        assert hit == (3, 3)

    def test_confinement_flips_with_horizon(self):
        U = depth_ball(FS.point("zero"), 1)
        x = FS.family("single", 3)
        v = confinement_verdict(FS, x, U, horizon=2)
        assert v.holds and v.certificate["elements_checked"] == 5
        v = confinement_verdict(FS, x, U, horizon=4)
        assert v.fails
        assert v.certificate == {"escape_length": 3, "escape_element": "3"}


class TestInvariantCore:
    def test_shift_core_shrinks_to_nothing(self):
        U0 = from_cylinder(Cylinder(FS.scheme, 0, 0, (0,)))
        shallow = invariant_core(FS, U0, depth=3, horizon=2)
        allz = (0, 0, 0, 0, 0)
        assert shallow.inner == shallow.outer == frozenset({allz})
        assert not shallow.unknown and len(shallow.excluded) == 31
        deep = invariant_core(FS, U0, depth=3, horizon=4)
        assert deep.inner == frozenset()
        assert deep.outer == frozenset({allz})
        assert deep.unknown == {allz: 4}

    def test_successor_core_is_exact_and_stable(self):
        Us = from_cylinder(Cylinder(SM.scheme, 2, 2, (0,)))
        core = invariant_core(SM, Us, depth=3, horizon=8)
        assert len(core.inner) == 12
        assert core.inner == core.outer
        assert not core.unknown and len(core.excluded) == 12
        assert all(p[0] == 0 for p in core.inner)
        doubled = invariant_core(SM, Us, depth=3, horizon=16)
        assert doubled.inner == core.inner and doubled.outer == core.outer

    def test_json_round_trip_shape(self):
        U0 = from_cylinder(Cylinder(FS.scheme, 0, 0, (0,)))
        data = invariant_core(FS, U0, depth=2, horizon=2).to_json()
        import json
        json.dumps(data)
        assert set(data) == {"depth", "horizon", "window", "inner",
                             "outer", "excluded", "unknown"}

    def test_input_depth_not_monotone_in_length(self, monkeypatch):
        # odd shifts flip coordinate 0, and the input depth overstates
        # the need of +-1 alone, so +-2..+-5 are resolved but +-1 is not.
        # reach is 0: every element of length 1..5 counts as blind, and
        # the resolved flips +-3 and +-5 beyond reach move no cell out
        # (the ball walk excluded the cells holding 0 with "3")
        system = FlowSystem(
            "odd-flip", "cylinder-z", IntegerGroup(), FS.scheme,
            lambda n, x: flows._flip_coords(x, (0,)) if n % 2 else x,
            lambda n, depth: depth + 3 if abs(n) == 1 else depth,
            {"zero": FS.point("zero")})
        assert system.required_input_depth(3, 1) == 1
        acts = counted_acts(monkeypatch, system)
        U0 = from_cylinder(Cylinder(FS.scheme, 0, 0, (0,)))
        core = invariant_core(system, U0, depth=2, horizon=5)
        cells = list(itertools.product((0, 1), repeat=3))
        assert core.unknown == {p: 10 for p in cells if p[1] == 0}
        assert core.excluded == {p: "0" for p in cells if p[1] == 1}
        assert core.outer == frozenset(core.unknown)
        assert core.inner == frozenset()
        # the search ran through reach 0, the identity alone
        assert acts == [0]
        # at depth 4 the input depth resolves the whole ball
        core = invariant_core(system, U0, depth=4, horizon=5)
        assert not core.unknown and not core.inner
        assert set(core.excluded.values()) == {"0", "1"}


def reference_invariant_core(system, target, depth, horizon):
    """``invariant_core`` as a loop over (cell, element) pairs that asks
    each element's input depth inside every cell, with each cell point
    built from a coordinate mapping."""
    lo, hi, cells = _cells(system, depth)
    if target.is_full or target.is_empty:
        chosen = frozenset(cells) if target.is_full else frozenset()
        return InvariantCoreApprox(depth, horizon, (lo, hi), chosen, chosen,
                                   {}, {})
    need_depth = max(system.scheme.offset(target.lo),
                     system.scheme.offset(target.hi)) + 1
    reach = length_ordered(system.group, horizon)
    inner, outer = [], []
    excluded, unknown = {}, {}
    for pattern in cells:
        window = dict(zip(range(lo, lo + len(pattern)), pattern))
        if system.scheme.kind == "two-sided":
            base = make_point(system.scheme, window, right=0, left=0)
        else:
            base = make_point(system.scheme,
                              [window[c] for c in sorted(window)], right=0)
        all_in = True
        out_witness = None
        unknown_count = 0
        for g in reach:
            if system.required_input_depth(g, need_depth) > depth:
                unknown_count += 1
                all_in = False
                continue
            if not target.member(system.act(g, base)):
                out_witness = g
                break
        if out_witness is not None:
            excluded[pattern] = system.group.format_element(out_witness)
            continue
        outer.append(pattern)
        if unknown_count:
            unknown[pattern] = unknown_count
        elif all_in:
            inner.append(pattern)
    return InvariantCoreApprox(depth, horizon, (lo, hi), frozenset(inner),
                               frozenset(outer), excluded, unknown)


@st.composite
def clopen_targets(draw, system):
    """A clopen set on the system's scheme, neither empty nor full, over
    a window of one to three coordinates, sometimes reaching past the
    depth window."""
    scheme = system.scheme
    if scheme.kind == "two-sided":
        lo = draw(st.integers(-3, 2))
    else:
        lo = scheme.start + draw(st.integers(0, 2))
    width = draw(st.integers(1, 3))
    sizes = [scheme.size(c) for c in range(lo, lo + width)]
    words = list(itertools.product(*(range(k) for k in sizes)))
    chosen = draw(st.sets(st.sampled_from(words), min_size=1,
                          max_size=len(words) - 1))
    return clopen(scheme, lo, sorted(chosen))


CORE_SYSTEMS = (OD, FS, SM)


@st.composite
def core_cases(draw):
    system = draw(st.sampled_from(CORE_SYSTEMS + (TM,)))
    return (system, draw(clopen_targets(system)), draw(st.integers(2, 4)),
            draw(st.integers(1, 16)))


class TestInvariantCoreAgainstOracle:
    @given(core_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_per_cell_loop(self, case):
        system, target, depth, horizon = case
        got = invariant_core(system, target, depth=depth, horizon=horizon)
        want = reference_invariant_core(system, target, depth, horizon)
        assert got.to_json() == want.to_json()


def reference_orbit_witnesses(system, x, horizon, depth):
    """Orbit cells keyed by the validated depth cylinder of each point."""
    witnesses = {}
    for g in length_ordered(system.group, horizon):
        pattern = depth_cylinder(system.act(g, x), depth).pattern
        witnesses.setdefault(pattern, system.group.format_element(g))
    return witnesses


@st.composite
def orbit_cases(draw):
    system = draw(st.sampled_from(CORE_SYSTEMS + (TM,)))
    x = system.point(draw(st.sampled_from(system.point_names())))
    return system, x, draw(st.integers(1, 16)), draw(st.integers(1, 4))


class TestOrbitCells:
    def test_single_spike_cells(self):
        oc = orbit_cylinders(FS, FS.family("single", 0), horizon=4, depth=2)
        assert sorted(oc.cells) == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                    (1, 0, 0)]
        assert oc.witnesses[(0, 1, 0)] == "0"

    @given(orbit_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_depth_cylinder_read(self, case):
        system, x, horizon, depth = case
        oc = orbit_cylinders(system, x, horizon=horizon, depth=depth)
        want = reference_orbit_witnesses(system, x, horizon, depth)
        assert list(oc.witnesses.items()) == list(want.items())
        assert oc.cells == frozenset(want)


class TestUpperSemicontinuity:
    def test_odometer_holds_at_matching_depth(self):
        v = usc_verdict(OD, OD.point("zero"), horizon=8, depth=2,
                        neighbor_depth_max=6)
        assert v.holds
        assert v.certificate["neighbor_depth"] == 2

    def test_shift_fixed_point_fails(self):
        v = usc_verdict(FS, FS.point("zero"), horizon=6, depth=2,
                        neighbor_depth_max=6)
        assert v.fails
        assert v.certificate["deepest_tried"] == 6
        assert v.certificate["escape_element"] == "5"

    def test_limit_circle_modulus_grows_with_horizon(self):
        needed = []
        for H in (8, 16, 32):
            v = usc_verdict(CS, CS.point("limit"), horizon=H, depth=2,
                            neighbor_depth_max=8)
            assert v.holds
            needed.append(v.certificate["neighbor_depth"])
        assert needed == [6, 7, 8]
        v = usc_verdict(CS, CS.point("limit"), horizon=64, depth=2,
                        neighbor_depth_max=8)
        assert v.fails and v.certificate["deepest_tried"] == 8

    def test_rotating_circle_holds(self):
        v = usc_verdict(CS, CS.point("level-1"), horizon=8, depth=2,
                        neighbor_depth_max=8)
        assert v.holds and v.certificate["neighbor_depth"] == 3

    def test_no_representatives_fails_before_acting(self, monkeypatch):
        system = build_two_copy()
        x = system.point(sorted(system.point_names())[0])
        acted = []
        # the orbit search acts through _act, not act
        for attr in ("act", "_act"):
            act = getattr(system, attr)
            monkeypatch.setattr(system, attr, lambda g, y, act=act:
                                acted.append(g) or act(g, y))
        with pytest.raises(DomainError,
                           match="no neighborhood representatives"):
            usc_verdict(system, x, horizon=3, depth=2, neighbor_depth_max=4)
        assert acted == []


class TestOrbitSymmetry:
    def test_odometer_pair_symmetric(self):
        v = orbit_symmetry_verdict(OD, [(OD.point("zero"), OD.point("one"))],
                                   horizon=8, depth=3)
        assert v.holds
        assert v.certificate == {"witnesses": [["1", "-1"]]}

    def test_step_reaches_zero_one_way(self):
        v = orbit_symmetry_verdict(FS, [(FS.family("step", 0),
                                         FS.point("zero"))],
                                   horizon=8, depth=2)
        assert v.fails
        assert v.certificate["forward_element"] == "-1"
        assert v.certificate["no_return_within"] == 8

    def test_unreached_pair_is_inconclusive(self):
        t2 = build_two_copy(3)
        v = orbit_symmetry_verdict(t2, [(t2.point("o-plus"),
                                         t2.point("o-minus"))],
                                   horizon=1, depth=3)
        assert v.inconclusive
        assert v.certificate["established"] == 0

    def test_empty_pairs_rejected(self):
        with pytest.raises(PreconditionError):
            orbit_symmetry_verdict(OD, [], horizon=4, depth=2)


class TestEquicontinuity:
    def test_odometer_modulus_equals_depth(self):
        for d in (2, 4):
            v = equicontinuity_verdict(OD, horizon=64, depth=d)
            assert v.holds and v.certificate["modulus"] == d

    def test_successor_and_components_hold(self):
        v = equicontinuity_verdict(SM, horizon=64, depth=3)
        assert v.holds and v.certificate["modulus"] == 3
        v = equicontinuity_verdict(CC, horizon=16, depth=2)
        assert v.holds and v.certificate["modulus"] == 2

    def test_expansive_systems_fail_with_growth(self):
        v = equicontinuity_verdict(FS, horizon=16, depth=2)
        assert v.fails and v.certificate["growth"] == [[8, 10], [16, 18]]
        v = equicontinuity_verdict(TM, horizon=16, depth=3)
        assert v.fails and v.certificate["growth"] == [[8, 11], [16, 19]]
        v = equicontinuity_verdict(CS, horizon=16, depth=2)
        assert v.fails and v.certificate["growth"] == [[8, 7], [16, 8]]

    def test_cap_fails_explicitly(self):
        v = equicontinuity_verdict(FS, horizon=100, depth=2,
                                   input_depth_max=32)
        assert v.fails
        assert v.certificate["exceeded_cap_at_radius"] == 31

    def test_word_group_kind_rejected(self):
        with pytest.raises(DomainError):
            equicontinuity_verdict(build_two_copy(3), horizon=4, depth=2)


class TestUniformRecurrence:
    def test_thue_morse_windows(self):
        v = uniform_recurrence_verdict(TM, word_length=1, window_max=12)
        assert v.holds and v.certificate["recurrence_window"] == 3
        v = uniform_recurrence_verdict(TM, word_length=2, window_max=16)
        assert v.holds and v.certificate["recurrence_window"] == 9

    def test_full_shift_pumps_a_counterexample(self):
        v = uniform_recurrence_verdict(FS, word_length=1, window_max=8)
        assert v.fails
        assert v.certificate == {"pumped_word": [0], "pumped_length": 8,
                                 "avoided_word": [1]}

    def test_needs_a_language(self):
        with pytest.raises(DomainError):
            uniform_recurrence_verdict(CS, word_length=1, window_max=4)


class TestProximality:
    def test_sign_pairs_stay_apart(self):
        t2 = build_two_copy(4)
        v = proximal_verdict(t2, t2.point("o-plus"), t2.point("o-minus"),
                             horizon=2, depth=4)
        assert v.fails
        assert v.certificate["min_distance"] == Fraction(1)
        mm = build_mcmahon(4)
        v = proximal_verdict(mm, mm.point("base"), mm.point("marked"),
                             horizon=2, depth=4)
        assert v.fails
        assert v.certificate["min_distance"] == Fraction(1)

    def test_equal_points_rejected(self):
        with pytest.raises(PreconditionError):
            proximal_verdict(OD, OD.point("zero"), OD.point("zero"),
                             horizon=2, depth=2)


class TestRegionalProximality:
    def test_two_copy_witness_chain(self):
        t2 = build_two_copy(4)
        v = regional_proximal_check(t2, standard_rp_witness(t2, 4), depth=4)
        assert v.holds
        quarters = [Fraction(1, 2 ** k) for k in range(2, 6)]
        assert v.certificate["approach_x"] == quarters
        assert v.certificate["pushed_together"] == quarters
        assert v.certificate["approach_y"] == [Fraction(0)] * 4

    def test_flip_count_witness_chain(self):
        mm = build_mcmahon(4)
        v = regional_proximal_check(mm, standard_rp_witness(mm, 4), depth=4)
        assert v.holds
        halves = [Fraction(1, 2 ** k) for k in range(1, 5)]
        assert v.certificate["approach_x"] == halves
        assert v.certificate["pushed_together"] == halves
        assert v.certificate["approach_y"] == \
            [Fraction(1, 2 ** k) for k in range(2, 6)]

    def test_witness_needs_truncation_room(self):
        with pytest.raises(DomainError):
            standard_rp_witness(build_two_copy(3), 5)
        with pytest.raises(DomainError):
            standard_rp_witness(OD, 3)


class TestTranslateCover:
    def test_odometer_cover_is_one_block(self):
        v = translate_cover_verdict(OD, OD.point("zero"), horizon=16,
                                    depth=2, cover_cap=8)
        assert v.holds
        assert v.certificate == {"cover": [0, 1, 2, 3], "cover_size": 4}

    def test_nonnegative_translates_cannot_reach_left(self):
        v = translate_cover_verdict(FS, FS.family("single", 0), horizon=8,
                                    depth=1, cover_cap=4)
        assert v.fails
        assert v.certificate["partial_cover"] == [0, 1, 2, 3, 4]
        assert v.certificate["uncovered_sample"][0] == -8

    # the greedy reads t - c for t <= horizon and c >= 0, so returns
    # above horizon were scanned for nothing: 16 of 160 acts at h64
    def test_scan_stops_at_the_horizon(self, monkeypatch):
        acts = []
        act = FlowSystem.act
        monkeypatch.setattr(FlowSystem, "act",
                            lambda self, g, x: acts.append(g) or
                            act(self, g, x))
        v = translate_cover_verdict(OD, OD.point("one"), horizon=64,
                                    depth=4, cover_cap=16)
        assert v.holds and len(acts) == 144

    @pytest.mark.parametrize("system", [OD, FS, TM],
                             ids=lambda s: s.system_id)
    def test_matches_the_full_span_scan(self, monkeypatch, system):
        import zerodim.analysis as analysis
        scan = analysis.return_times
        for name in system.point_names():
            x = system.point(name)
            for horizon, depth, cap in ((8, 1, 2), (16, 2, 4),
                                        (32, 3, 16)):
                v = translate_cover_verdict(system, x, horizon=horizon,
                                            depth=depth, cover_cap=cap)
                # the scan as it was: [-horizon - cap, horizon + cap]
                with monkeypatch.context() as m:
                    m.setattr(analysis, "return_times",
                              lambda s, y, d, lo, hi: scan(s, y, d, lo, -lo))
                    want = translate_cover_verdict(
                        system, x, horizon=horizon, depth=depth,
                        cover_cap=cap)
                assert v.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# proximality and orbit symmetry from the orbit-layer search


class TestProbeParameters:
    """Horizon and depth are exact ints, as radii are: a float would
    reach the certificate or a range, and True would run as 1."""

    @pytest.mark.parametrize("horizon,depth", [
        (2.5, 2), (True, 2), (2, True), (2.0, 2), (2, 2.5)],
        ids=["horizon-2.5", "horizon-True", "depth-True", "horizon-2.0",
             "depth-2.5"])
    def test_proximal_rejects_non_int(self, horizon, depth):
        t2 = build_two_copy(3)
        with pytest.raises(PreconditionError, match="must be an int"):
            proximal_verdict(t2, t2.point("o-plus"), t2.point("o-minus"),
                             horizon=horizon, depth=depth)

    def test_other_probes_reject_non_int(self):
        with pytest.raises(PreconditionError, match="must be an int"):
            type1_verdict(OD, OD.point("zero"), horizon=8.0, depth=2)
        with pytest.raises(PreconditionError, match="must be an int"):
            confinement_verdict(OD, OD.point("zero"),
                                depth_ball(OD.point("zero"), 2),
                                horizon=True)
        with pytest.raises(PreconditionError, match=">= 1"):
            proximal_verdict(OD, OD.point("zero"), OD.point("one"),
                             horizon=0, depth=2)

    # parameter -> (the call with it set to v, a value below its bound)
    CAPS = {
        "cover_cap": (lambda v: translate_cover_verdict(
            OD, OD.point("zero"), horizon=4, depth=2, cover_cap=v), 0),
        "period_max": (lambda v: pointwise_period_verdict(
            SM, SM.point("zero"), period_max=v), 0),
        "input_depth_max": (lambda v: equicontinuity_verdict(
            OD, horizon=4, depth=2, input_depth_max=v), 1),
        "neighbor_depth_max": (lambda v: usc_verdict(
            OD, OD.point("zero"), horizon=4, depth=2,
            neighbor_depth_max=v), 1),
        "word_length": (lambda v: uniform_recurrence_verdict(
            TM, word_length=v, window_max=8), 0),
        "window_max": (lambda v: uniform_recurrence_verdict(
            TM, word_length=2, window_max=v), 1),
        "regional_proximal_check-depth": (lambda v: regional_proximal_check(
            TC, standard_rp_witness(TC, 3), depth=v), 0),
        "standard_rp_witness-depth": (
            lambda v: standard_rp_witness(TC, v), 0),
        "required_input_depth-depth": (lambda v: OD.required_input_depth(
            1, v), 0),
    }

    @pytest.mark.parametrize("param", CAPS)
    @pytest.mark.parametrize("value", [True, 2.5, "3", "below"])
    def test_caps_reject_bad_values(self, param, value):
        call, below = self.CAPS[param]
        with pytest.raises(PreconditionError):
            call(below if value == "below" else value)


def breadth_first(group, radius):
    """The radius ball in breadth-first discovery order: the identity,
    then the successors s*a of each element in turn, with s running
    over the non-identity generators in ``sort_key`` order."""
    gens = sorted((s for s in group.generators() if s != group.identity),
                  key=group.sort_key)
    order, length = [group.identity], {group.identity: 0}
    for a in order:
        if length[a] == radius:
            break
        for s in gens:
            b = group.multiply(s, a)
            if b not in length:
                length[b] = length[a] + 1
                order.append(b)
    return order


def reference_proximal(system, x, y, horizon, depth):
    """``proximal_verdict`` as a walk over the whole horizon ball."""
    params = _params(system, point_x=system.format_point(x),
                     point_y=system.format_point(y), horizon=horizon,
                     depth=depth)
    best = None
    target = Fraction(1, 2 ** depth)
    for g in breadth_first(system.group, horizon):
        d = system.distance(system.act(g, x), system.act(g, y))
        if best is None or d < best[0]:
            best = (d, g)
        if d <= target:
            return holds("proximal-pair", params, {
                "witness": system.group.format_element(g),
                "distance": d,
            })
    return fails("proximal-pair", params, {
        "min_distance": best[0],
        "at_element": system.group.format_element(best[1]),
    })


def reference_orbit_symmetry(system, pairs, horizon, depth):
    """``orbit_symmetry_verdict`` as a walk over the whole horizon ball
    for each reach."""
    name = "orbit-symmetry"
    params = _params(system, horizon=horizon, depth=depth, pairs=len(pairs))
    reach = breadth_first(system.group, horizon)
    established, unestablished = [], []
    for x, y in pairs:
        fwd = next((g for g in reach
                    if system.cell(system.act(g, x), depth)(y)), None)
        if fwd is None:
            unestablished.append([system.format_point(x),
                                  system.format_point(y)])
            continue
        back = next((h for h in reach
                     if system.cell(system.act(h, y), depth)(x)), None)
        if back is None:
            return fails(name, params, {
                "from": system.format_point(x),
                "to": system.format_point(y),
                "forward_element": system.group.format_element(fwd),
                "no_return_within": horizon,
            })
        established.append([system.group.format_element(fwd),
                            system.group.format_element(back)])
    if unestablished:
        return inconclusive(name, params, {
            "unestablished_pairs": unestablished,
            "established": len(established),
        })
    return holds(name, params, {"witnesses": established})


def reference_escape_length(system, x, neighborhood, horizon):
    """``escape_length`` as a walk over the whole horizon ball."""
    member = (neighborhood.member if isinstance(neighborhood, ClopenSet)
              else neighborhood)
    for g in length_ordered(system.group, horizon):
        if not member(system.act(g, x)):
            return (word_length(system.group, g), g)
    return None


def reference_usc(system, x, *, horizon, depth, neighbor_depth_max):
    """``usc_verdict`` as a walk over the whole horizon ball, per
    representative, against the images of every ball element."""
    name = "orbit-upper-semicontinuity"
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth, neighbor_depth_max=neighbor_depth_max)
    reach = length_ordered(system.group, horizon)
    cellwise = system.kind == "cylinder-z"
    if cellwise:
        lo, hi = system.scheme.depth_window(depth)
        own = frozenset(tuple(read_symbols(system.act(g, x), lo, hi))
                        for g in reach)
    else:
        own_pts = [system.act(g, x) for g in reach]
    last_failure = None
    for dprime in range(depth, neighbor_depth_max + 1):
        failure = None
        for rep in system.neighbor_reps(x, dprime):
            for g in reach:
                moved = system.act(g, rep)
                if cellwise:
                    bad = tuple(read_symbols(moved, lo, hi)) not in own
                else:
                    bad = all(not system.cell(moved, depth)(p)
                              for p in own_pts)
                if bad:
                    failure = (dprime, rep, g)
                    break
            if failure:
                break
        if failure is None:
            return holds(name, params, {
                "neighbor_depth": dprime,
                "representatives": len(system.neighbor_reps(x, dprime)),
            })
        last_failure = failure
    dprime, rep, g = last_failure
    return fails(name, params, {
        "deepest_tried": dprime,
        "escaping_representative": system.format_point(rep),
        "escape_element": system.group.format_element(g),
    })


def own_cell(system, x, depth):
    """The depth neighborhood of x: its clopen depth ball on a symbol
    space, else the points its metric puts within 2^-depth."""
    if system.scheme is not None:
        return depth_ball(x, depth)
    return lambda p: system.cell(p, depth)(x)


# the systems with neighborhood representatives
REP_SYSTEMS = ("circle-stack", "circle-stack-components", "full-shift",
               "odometer", "successor-map", "thue-morse")


class TestEscapeAndTraceAgainstBallWalk:
    """``escape_length`` and ``usc_verdict`` match the ball walks on
    every named point.  These systems act by Z, where breadth-first
    order is (word length, ``sort_key``) order, so the walks keep that
    order and check that the integer certificates did not change."""

    @pytest.mark.parametrize("sid", REP_SYSTEMS)
    def test_named_points(self, sid):
        system = get_system(sid)
        for name in sorted(system.point_names()):
            x = system.point(name)
            for horizon in range(1, 14):
                for depth in (1, 2, 3):
                    cell = own_cell(system, x, depth)
                    assert escape_length(system, x, cell, horizon=horizon) \
                        == reference_escape_length(system, x, cell, horizon)
                    kw = dict(horizon=horizon, depth=depth,
                              neighbor_depth_max=depth + 3)
                    assert usc_verdict(system, x, **kw).to_json() \
                        == reference_usc(system, x, **kw).to_json()


@st.composite
def shift_and_odometer_points(draw):
    """A full-shift point (window of up to six symbols, periodic tails)
    or an odometer point (up to eight digits, tail 0 or 1)."""
    bits = st.lists(st.integers(0, 1), max_size=8)
    if draw(st.booleans()):
        system = FS
        x = make_point(FS.scheme, draw(st.lists(st.integers(0, 1),
                                                max_size=6)),
                       right=periodic_tail(draw(bits.filter(bool))),
                       left=periodic_tail(draw(bits.filter(bool))),
                       lo=draw(st.integers(-3, 0)))
    else:
        system = OD
        x = make_point(OD.scheme, draw(bits), right=draw(st.integers(0, 1)))
    return system, x, draw(st.integers(1, 13)), draw(st.integers(1, 3))


class TestEscapeAndTraceProperty:
    @given(shift_and_odometer_points())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_ball_walks(self, case):
        system, x, horizon, depth = case
        cell = depth_ball(x, depth)
        assert escape_length(system, x, cell, horizon=horizon) \
            == reference_escape_length(system, x, cell, horizon)
        kw = dict(horizon=horizon, depth=depth,
                  neighbor_depth_max=depth + 3)
        assert usc_verdict(system, x, **kw).to_json() \
            == reference_usc(system, x, **kw).to_json()


# each system's named points plus a few members of each point family
FAMILY_SAMPLES = {
    "circle-stack": [("level", 1), ("level", 3, Fraction(1, 4)),
                     ("limit-at", Fraction(1, 3))],
    "circle-stack-components": [("level", 3)],
    "full-shift": [("step", -1), ("step", 2), ("single", 0), ("single", 3)],
    "mcmahon": [("ring", 1), ("ring", 2, 1), ("ring-flipped", 1),
                ("ring-flipped", 2, 1)],
    "odometer": [],
    "successor-map": [("unit-at", 3), ("unit-at", 5)],
    "thue-morse": [("reflection", 8), ("reflection-flipped", 8)],
    "two-copy": [("step", 0), ("step", 1, -1)],
}
SAMPLED = {sid: get_system(sid) for sid in sorted(FAMILY_SAMPLES)}


def sample_points(sid):
    system = SAMPLED[sid]
    return ([system.point(n) for n in system.point_names()]
            + [system.family(*args) for args in FAMILY_SAMPLES[sid]])


class TestOrbitSearchAgainstBallWalk:
    """Certificates match the ball walks byte for byte.  The walks list
    the ball in breadth-first discovery order (``breadth_first``), which
    does not depend on the orbit search; the search yields each new
    image with the first element in that order that reaches it."""

    @pytest.mark.parametrize("sid", sorted(FAMILY_SAMPLES))
    def test_proximal(self, sid):
        system = SAMPLED[sid]
        for x, y in itertools.combinations(sample_points(sid), 2):
            if system.equal(x, y):
                continue
            for horizon in (1, 2, 3, 4):
                for depth in (1, 2, 3):
                    got = proximal_verdict(system, x, y, horizon=horizon,
                                           depth=depth)
                    want = reference_proximal(system, x, y, horizon, depth)
                    assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("sid", sorted(FAMILY_SAMPLES))
    def test_orbit_symmetry(self, sid):
        system = SAMPLED[sid]
        points = sample_points(sid)
        pairs = list(itertools.permutations(points, 2))
        for horizon in (1, 2, 3, 4):
            for depth in (1, 2, 3):
                for chosen in [pairs] + [[p] for p in pairs]:
                    got = orbit_symmetry_verdict(system, chosen,
                                                 horizon=horizon, depth=depth)
                    want = reference_orbit_symmetry(system, chosen, horizon,
                                                    depth)
                    assert got.to_json() == want.to_json()


TWO_COPY = build_two_copy(3)
MCMAHON = build_mcmahon(3)


@st.composite
def word_group_pairs(draw):
    if draw(st.booleans()):
        system = TWO_COPY
        point = st.builds(lambda i, sign: system.family("step", i, sign),
                          st.integers(-4, 4), st.sampled_from((1, -1)))
    else:
        system = MCMAHON
        point = st.builds(lambda kind, j, bit: system.family(kind, j, bit),
                          st.sampled_from(("ring", "ring-flipped")),
                          st.integers(0, 3), st.integers(0, 1))
    return (system, draw(point), draw(point), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)))


class TestWordGroupProperty:
    @given(word_group_pairs())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_ball_walks(self, case):
        system, x, y, horizon, depth = case
        sym = orbit_symmetry_verdict(system, [(x, y)], horizon=horizon,
                                     depth=depth)
        assert sym.to_json() == reference_orbit_symmetry(
            system, [(x, y)], horizon, depth).to_json()
        if not system.equal(x, y):
            got = proximal_verdict(system, x, y, horizon=horizon,
                                   depth=depth)
            assert got.to_json() == reference_proximal(
                system, x, y, horizon, depth).to_json()


def least_passing_length(system, points, horizon, test):
    """The least word length, within the horizon, of an element whose
    images of the points pass ``test``: the length of the first such
    element in (word length, ``sort_key``) order; None if none."""
    for g in length_ordered(system.group, horizon):
        if test(tuple(system.act(g, p) for p in points)):
            return word_length(system.group, g, method="bfs")
    return None


class TestWitnessLengthProperty:
    """Every witness the orbit search names has word length r, the
    layer it was met at, and no element of the ball that passes is
    shorter.  Checked against the Cayley search's own ``word_length``
    on the two word groups, where breadth-first order need not be
    (word length, ``sort_key``) order."""

    @given(word_group_pairs())
    @settings(max_examples=60, deadline=None)
    def test_witnesses_have_least_length(self, case):
        system, x, y, horizon, depth = case
        group = system.group

        def check(points, test, r, g):
            assert word_length(group, g, method="bfs") == r
            assert least_passing_length(system, points, horizon, test) == r

        if not system.equal(x, y):
            target = Fraction(1, 2 ** depth)
            least, r, g, _ = _first_least(
                system, (x, y), horizon, lambda im: system.distance(*im),
                target)
            bound = max(least, target)
            check((x, y), lambda im: system.distance(*im) <= bound, r, g)
            v = proximal_verdict(system, x, y, horizon=horizon, depth=depth)
            assert v.certificate["witness" if v.holds else "at_element"] \
                == group.format_element(g)
        named = []
        for a, b in ((x, y), (y, x)):
            def test(im, b=b):
                return system.cell(im[0], depth)(b)
            hit = _first_hit(system, (a,), horizon, test)
            if hit is None:
                assert least_passing_length(system, (a,), horizon,
                                            test) is None
                break
            check((a,), test, *hit)
            named.append(group.format_element(hit[1]))
        sym = orbit_symmetry_verdict(system, [(x, y)], horizon=horizon,
                                     depth=depth)
        if sym.holds:
            assert sym.certificate["witnesses"] == [named]

        def cell(p):
            return system.cell(p, depth)(x)

        def leaves(im):
            return not cell(im[0])
        hit = escape_length(system, x, cell, horizon=horizon)
        if hit is None:
            assert least_passing_length(system, (x,), horizon,
                                        leaves) is None
        else:
            check((x,), leaves, *hit)


def counted_acts(monkeypatch, system) -> list:
    """A one-item list counting the calls of the system's own action."""
    acts = [0]
    act = system._act

    def counted(g, x):
        acts[0] += 1
        return act(g, x)
    monkeypatch.setattr(system, "_act", counted)
    return acts


class TestOrbitSearchWork:
    """Exact act and product counts, so a slide back to walking the
    group ball fails even where wall-clock timing is noisy.  Acts are
    counted on the system's own action, which both ``act`` and the
    orbit search call; products on the word group's ``multiply``."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"acts": 0, "products": 0}
        for cls in (TwoCopyGroup, McMahonGroup):
            multiply = cls.multiply

            def counted(self, a, b, multiply=multiply):
                counts["products"] += 1
                return multiply(self, a, b)
            monkeypatch.setattr(cls, "multiply", counted)
        for sid in ("two-copy", "mcmahon"):
            build = flows.SYSTEM_BUILDERS[sid]

            def built(build=build):
                system = build()
                act = system._act

                def counted(g, x):
                    counts["acts"] += 1
                    return act(g, x)
                system._act = counted
                return system
            monkeypatch.setitem(flows.SYSTEM_BUILDERS, sid, built)
        return counts

    @pytest.mark.parametrize("sid,identity,acts,products", [
        # the orbit of the pair is far smaller than the radius-3 ball:
        # the ball walk made 838 acts and 730 products
        ("two-copy", "1", 328, 310),
        # a free action: the orbit is the ball, and the search costs
        # what the ball walk did (256 acts, 812 products), less the act
        # by the identity
        ("mcmahon", "e", 254, 812),
    ])
    def test_regional_check_pair(self, counts, sid, identity, acts,
                                 products):
        # the pair and parameters of regional-approach-without-proximality
        system = get_system(sid)
        witness = standard_rp_witness(system, 3)
        v = proximal_verdict(system, witness.x, witness.y, horizon=3,
                             depth=2)
        assert v.certificate == {"min_distance": Fraction(1),
                                 "at_element": identity}
        assert counts == {"acts": acts, "products": products}

    # a ball walk would pass the default cap of 10^6 elements at either
    # horizon; the reach is found at length 2, and the pair's orbit of
    # 256 points closes before length 16.  The witness is the element
    # the search meets, so no Cayley layer is scanned: the scan of
    # layer 2 for the first element in sort_key order made 328 acts
    # and 362 products for orbit-symmetry
    @pytest.mark.parametrize("argv,acts,products", [
        (["orbit-symmetry"], 192, 252),
        (["proximal-pair", "--point", "o-minus", "--point", "o-plus",
          "--horizon", "16", "--depth", "3"], 2198, 2560),
    ])
    def test_two_copy_commands(self, counts, capsys, argv, acts, products):
        assert cli.main(["analyze", "two-copy"] + argv + ["--json"]) == 0
        json.loads(capsys.readouterr().out)
        assert counts == {"acts": acts, "products": products}

    # reaches from o-minus into a depth cell of a step point, first met
    # at lengths 6, 7 and 8 (there and back).  Scanning Cayley layer r
    # for the witness took seconds at 6 and 7, and passed the cap of
    # 10^6 elements at 8
    @pytest.mark.parametrize("k,depth,acts,products", [
        (-3, 3, 1302, 3007),
        (-3, 4, 1610, 3760),
        (-4, 4, 1718, 4030),
    ])
    def test_two_copy_reach(self, counts, k, depth, acts, products):
        system = get_system("two-copy")
        pair = (system.point("o-minus"), system.family("step", k, 1))
        assert orbit_symmetry_verdict(system, [pair], horizon=16,
                                      depth=depth).holds
        assert counts == {"acts": acts, "products": products}

    # the recurrence-symmetry check's pairs: every ordered pair of named
    # points, horizon 8, depth 2.  The ball walk made 36 and 24 acts
    # (12 and 4 of them by 0) and as many depth tests; the search stops
    # at the first passing image, and a free action of Z meets each
    # layer in sort_key order, so it tests exactly what the walk did
    @pytest.mark.parametrize("sid,acts,tests", [
        ("odometer", 24, 36),
        ("thue-morse", 20, 24),
    ])
    def test_integer_named_pairs(self, monkeypatch, sid, acts, tests):
        system = get_system(sid)
        counts = {"acts": 0, "tests": 0}
        act, cell = system._act, system.cell

        def counted_act(g, x):
            counts["acts"] += 1
            return act(g, x)

        def counted_cell(x, depth):
            test = cell(x, depth)

            def counted_test(y):
                counts["tests"] += 1
                return test(y)
            return counted_test
        monkeypatch.setattr(system, "_act", counted_act)
        monkeypatch.setattr(system, "cell", counted_cell)
        names = sorted(system.point_names())
        pairs = [(system.point(a), system.point(b))
                 for a, b in itertools.permutations(names, 2)]
        assert orbit_symmetry_verdict(system, pairs, horizon=8,
                                      depth=2).holds
        assert counts == {"acts": acts, "tests": tests}

    # the ball walk made 1,172 acts here: the trace acted with all 129
    # elements, and each representative with every element up to its
    # escape; the orbit search acts once per new image
    def test_circle_limit_trace(self, monkeypatch):
        system = get_system("circle-stack")
        acts = counted_acts(monkeypatch, system)
        v = usc_verdict(system, system.point("limit"), horizon=64, depth=2,
                        neighbor_depth_max=8)
        assert v.certificate["escape_element"] == "33"
        assert acts == [149]

    # step leaves its cell at length 1, which the walk met after acting
    # by 0 (2 acts); zero is fixed, so its orbit closes at length 1
    # where the walk acted with all 17 elements
    @pytest.mark.parametrize("name,acts", [("step", 1), ("zero", 2)])
    def test_shift_confinement(self, monkeypatch, name, acts):
        system = get_system("full-shift")
        counted = counted_acts(monkeypatch, system)
        x = system.point(name)
        confinement_verdict(system, x, depth_ball(x, 2), horizon=8)
        assert counted == [acts]

    # successor-map orbits are finite: each of the 12 cells whose first
    # symbol is 0 stays in the target until its orbit closes, so the
    # count does not grow with the horizon.  The ball walk acted with
    # every element on every cell: 168 acts at horizon 6, 98,328 at 4096
    @pytest.mark.parametrize("horizon", [6, 4096])
    def test_successor_invariant_core(self, monkeypatch, horizon):
        system = get_system("successor-map")
        acts = counted_acts(monkeypatch, system)
        target = from_cylinder(Cylinder(system.scheme, 2, 2, (0,)))
        core = invariant_core(system, target, depth=3, horizon=horizon)
        assert len(core.inner) == len(core.excluded) == 12
        assert acts == [60]

    # each cell stops at its first witness, and no act by the identity:
    # the ball walk made 20 acts, 8 of them by 0
    def test_odometer_invariant_core(self, monkeypatch):
        system = get_system("odometer")
        acts = counted_acts(monkeypatch, system)
        target = clopen(system.scheme, 0, [(0, 0), (0, 1), (1, 0)])
        core = invariant_core(system, target, depth=3, horizon=8)
        assert sorted(set(core.excluded.values())) == ["-1", "0", "1", "2"]
        assert len(core.excluded) == 8
        assert acts == [12]
