"""End-to-end acceptance battery.

One test per shipped guarantee, fourteen in all, each printing a
single pass or fail line (visible with ``pytest -s``; a summary block
repeats them after any run).  Every check is exact integer or rational
arithmetic; the only tolerances are the wall-clock bounds asserted
inside criteria 1, 3, 5, and 14.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from zerodim.analysis import (ap_verdict, equicontinuity_verdict,
                              pointwise_period_verdict, regional_proximal_check,
                              regular_ap_verdict, return_times,
                              standard_rp_witness, translate_cover_verdict,
                              type1_verdict, type2_verdict,
                              uniform_recurrence_verdict, usc_verdict,
                              weak_rigidity_verdict)
from zerodim.cantor import make_point
from zerodim.flows import build_mcmahon, build_two_copy, get_system
from zerodim.groups import (IntegerGroup, LatticeGroup, affine_sequence,
                            cone_approx, explicit_sequence, is_thick_window,
                            power_set, word_length)
from zerodim.subgroups import (IntegerSubgroup, all_subgroups, dihedral_group,
                               generates_within, generation_check,
                               induced_generating_set, intersect_subgroups,
                               normal_core, subgroup_index, symmetric_group)

ROOT = Path(__file__).resolve().parent.parent

CRITERIA = {
    1: "word metric matches the closed norms out to radius 20",
    2: "stabilized integer cones are one-sided ball halves",
    3: "radius-5 probe sets shift whole into the stabilized cones",
    4: "induced generators reproduce subgroup words level by level",
    5: "finite subgroup intersections and cores behave as claimed",
    6: "binary odometer passes the uniform battery at every depth",
    7: "single-marker shift point recurs only trivially",
    8: "substitution shift is minimal but never equicontinuous",
    9: "flip-count moves commute, square on one sheet, vanish at four",
    10: "copy-swap involutions pinch the two sheets together",
    11: "dial-tower period sits one coordinate past the first nonzero",
    12: "tower rotations keep exact level periods around a fixed limit",
    13: "depth cells are tiled by exactly the first 2^d translates",
    14: "verification battery is byte-deterministic and fast",
}


def criterion(num):
    """Print a pass or fail line for one acceptance criterion."""
    label = CRITERIA[num]

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print("[FAIL] criterion %02d: %s" % (num, label))
                raise
            print("[PASS] criterion %02d: %s" % (num, label))
            return out
        return wrapper
    return deco


@criterion(1)
def test_criterion_01_word_metric():
    Z = IntegerGroup()
    Z2 = LatticeGroup(2)
    start = time.perf_counter()
    for n in range(-20, 21):
        assert word_length(Z, n, method="bfs") == abs(n)
        assert word_length(Z, n) == abs(n)
    for a in range(-20, 21):
        for b in range(-20, 21):
            if abs(a) + abs(b) <= 20:
                assert word_length(Z2, (a, b), method="bfs") == abs(a) + abs(b)
                assert word_length(Z2, (a, b)) == abs(a) + abs(b)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "metric sweep took %.2fs" % elapsed


@criterion(2)
def test_criterion_02_cone_classification():
    Z = IntegerGroup()
    # zero-offset rays, every radius up to 50
    for step in (1, -1, 2, -2, 5, -5):
        half_sign = 1 if step > 0 else -1
        for radius in range(1, 51):
            approx = cone_approx(Z, affine_sequence(step), radius)
            assert approx.stabilized, (step, radius)
            expected = frozenset(range(1, radius + 1)) if half_sign > 0 \
                else frozenset(range(-radius, 0))
            assert approx.elements == expected, (step, radius)
    # offset rays land in the same two halves
    shifted = [(1, 1), (1, 7), (-1, -1), (-1, -7), (2, -1), (2, 1),
               (-2, 1), (-2, -1), (5, -3), (5, 2), (-5, 3), (-5, -2)]
    halves = (frozenset(range(1, 51)), frozenset(range(-50, 0)))
    for step, offset in shifted:
        approx = cone_approx(Z, affine_sequence(step, offset), 50)
        assert approx.stabilized, (step, offset)
        assert approx.elements in halves, (step, offset)
    # a direction-flipping sequence never settles
    flipper = explicit_sequence([2, -5, 11, -23, 47])
    for radius in (5, 20, 50):
        assert not cone_approx(Z, flipper, radius).stabilized


@criterion(3)
def test_criterion_03_cone_thickness():
    start = time.perf_counter()
    Z = IntegerGroup()
    probe = power_set(Z, 5)
    cone = cone_approx(Z, affine_sequence(1), 16)
    assert cone.stabilized
    # a single shift working for the full radius-5 ball works for every
    # subset of it at once
    shift = next(t for t in sorted(cone.elements)
                 if all(f + t in cone.elements for f in probe))
    assert shift == 6
    assert all(f + shift in cone.elements for f in probe)
    window = is_thick_window(Z, cone, 5, 16)
    assert window.holds and window.certificate["witness"] == "6"

    Z2 = LatticeGroup(2)
    probe2 = power_set(Z2, 5)
    cone2 = cone_approx(Z2, affine_sequence((1, 0)), 16)
    assert cone2.stabilized
    shift2 = next(s for s in sorted(cone2.elements, key=Z2.sort_key)
                  if all(Z2.multiply(f, s) in cone2.elements for f in probe2))
    assert shift2 == (6, 0)
    assert all(Z2.multiply(f, shift2) in cone2.elements for f in probe2)
    window2 = is_thick_window(Z2, cone2, 5, 16)
    assert window2.holds and window2.certificate["probe_size"] == len(probe2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "thickness check took %.2fs" % elapsed


@criterion(4)
def test_criterion_04_induced_generation():
    Z = IntegerGroup()
    for modulus in (2, 3):
        sub = IntegerSubgroup(modulus)
        psi = induced_generating_set(Z, sub)
        assert sorted(psi) == [-modulus, 0, modulus]
        # independent arithmetic: level-n words of the ambient group
        # that land in the subgroup are level-n words over psi
        for n in range(1, 13):
            ambient_level = {g for g in range(-n, n + 1) if g % modulus == 0}
            psi_level = {k * modulus for k in range(-n, n + 1)}
            assert ambient_level <= psi_level
        check = generation_check(Z, sub, 12)
        assert check.holds and check.certificate["checked_to"] == 12
        span = generates_within(Z, sub, psi, 50)
        assert span.holds
        # every subgroup element in the ball is a psi word
        assert span.certificate["reached"] == 2 * (50 // modulus)


@criterion(5)
def test_criterion_05_subgroup_laws():
    start = time.perf_counter()
    for G in (symmetric_group(3), symmetric_group(4), dihedral_group(4)):
        elements = list(G.elements())
        order = G.order()
        subs = all_subgroups(G)

        def conjugates(members, g):
            inv = G.inverse(g)
            return {G.multiply(G.multiply(g, h), inv) for h in members}

        def is_normal(members):
            return all(conjugates(members, g) == members for g in elements)

        normal_families = [frozenset(s.members) for s in subs
                           if is_normal(set(s.members))]
        for A in subs:
            for B in subs:
                C = intersect_subgroups(G, [A, B])
                assert set(C.members) == set(A.members) & set(B.members)
                index = subgroup_index(G, C)
                assert order % len(set(C.members)) == 0
                assert index <= subgroup_index(G, A) * subgroup_index(G, B)
        for A in subs:
            core = normal_core(G, A)
            members = set(core.members)
            assert members <= set(A.members)
            assert is_normal(members)
            assert order % len(members) == 0
            # nothing normal inside A escapes the core
            for family in normal_families:
                if family <= set(A.members):
                    assert family <= members
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "subgroup sweep took %.2fs" % elapsed


@criterion(6)
def test_criterion_06_odometer_battery():
    system = get_system("odometer")
    zero = system.point("zero")
    everyone = [system.point(n) for n in sorted(system.point_names())]
    for depth in range(1, 7):
        gap = 2 ** depth
        horizon = max(8, 2 * gap)
        ap = ap_verdict(system, zero, horizon=horizon, depth=depth)
        assert ap.holds and ap.certificate["max_gap_in_span"] == gap
        regular = regular_ap_verdict(system, zero, horizon=horizon,
                                     depth=depth)
        assert regular.holds and regular.certificate["modulus"] == gap
        both_ways = type1_verdict(system, zero, horizon=horizon, depth=depth)
        assert both_ways.holds
        cone = type2_verdict(system, zero, horizon=horizon, depth=depth)
        assert cone.holds and cone.certificate["subnet_bound"] == gap
        rigid = weak_rigidity_verdict(system, everyone, horizon=horizon,
                                      depth=depth)
        assert rigid.holds and rigid.certificate["shift"] == gap
        # the continuity modulus is the depth itself, at any horizon
        for h in (horizon, min(256, 4 * horizon)):
            eq = equicontinuity_verdict(system, horizon=h, depth=depth)
            assert eq.holds and eq.certificate["modulus"] == depth


@criterion(7)
def test_criterion_07_single_marker():
    system = get_system("full-shift")
    spike = system.family("single", 0)
    # direct orbit trace: the marker sits at the origin only for n = 0
    visits = {n for n in range(-200, 201)
              if system.act(n, spike).value(0) == 1}
    assert visits == {0}
    assert return_times(system, spike, 1, -200, 200) == ()
    ap = ap_verdict(system, spike, horizon=200, depth=1)
    assert ap.fails
    assert ap.certificate["returns_in_span"] == []
    assert ap.certificate["empty_window_length"] == 100
    both_ways = type1_verdict(system, spike, horizon=200, depth=1)
    assert both_ways.fails
    assert set(both_ways.certificate["missing_directions"]) == \
        {"forward", "backward"}
    cone = type2_verdict(system, spike, horizon=200, depth=1)
    assert cone.fails and "no_return_in_cone_of" in cone.certificate
    drift = usc_verdict(system, system.point("zero"), horizon=8, depth=2,
                        neighbor_depth_max=4)
    assert drift.fails
    assert "escaping_representative" in drift.certificate
    assert "escape_element" in drift.certificate


@criterion(8)
def test_criterion_08_substitution_shift():
    system = get_system("thue-morse")
    windows = {}
    for n in range(1, 7):
        v = uniform_recurrence_verdict(system, word_length=n, window_max=64)
        assert v.holds, n
        windows[n] = v.certificate["recurrence_window"]
    assert windows[1] == 3
    assert all(isinstance(w, int) and w >= 1 for w in windows.values())
    eq = equicontinuity_verdict(system, horizon=64, depth=1,
                                input_depth_max=128)
    assert eq.fails
    table = eq.certificate["table"]
    assert len(table) == 64
    # the needed input depth grows strictly with the horizon radius
    assert all(a < b for a, b in zip(table, table[1:]))
    assert table[0] == 2 and table[-1] == 65


@criterion(9)
def test_criterion_09_flip_count_algebra():
    system = build_mcmahon(9)
    group = system.group

    def move(i):
        return (frozenset({i}), 0)

    indices = range(-8, 9)
    for i in indices:
        for j in indices:
            assert group.multiply(move(i), move(j)) == \
                group.multiply(move(j), move(i)), (i, j)
    inventory = [system.point("base"), system.point("marked")]
    for j in range(1, 9):
        for bit in (0, 1):
            inventory.append(system.family("ring", j, bit))
            inventory.append(system.family("ring-flipped", j, bit))
    for i in indices:
        square = group.multiply(move(i), move(i))
        fourth = group.multiply(square, square)
        assert fourth == group.identity
        for point in inventory:
            moved = system.act(square, point)
            assert moved[0] == point[0]  # symbol sheet untouched
            assert moved[1] == 1 - point[1]  # parity sheet swapped
            assert system.act(fourth, point) == point
    witness = standard_rp_witness(system, 8)
    for j, (_, _, g) in enumerate(witness.entries, start=1):
        assert g == move(j)
    check = regional_proximal_check(system, witness, depth=8)
    assert check.holds
    assert check.certificate["pushed_together"] == \
        [Fraction(1, 2 ** j) for j in range(1, 9)]


@criterion(10)
def test_criterion_10_copy_swap_algebra():
    system = build_two_copy(9)
    group = system.group
    still = system.point("o-minus")
    for i in range(1, 9):
        b = group.named_generator("b%d" % i)
        assert group.multiply(b, b) == group.identity
        plus = system.family("step", i, 1)
        minus = system.family("step", i, -1)
        assert system.act(b, plus) == minus
        assert system.act(b, minus) == plus
        assert system.act(b, still) == still
    witness = standard_rp_witness(system, 8)
    assert witness.x == system.point("o-plus")
    assert witness.y == system.point("o-minus")
    check = regional_proximal_check(system, witness, depth=8)
    assert check.holds
    assert check.certificate["approach_y"] == [Fraction(0)] * 8
    assert check.certificate["pushed_together"] == \
        [Fraction(1, 2 ** (j + 1)) for j in range(1, 9)]


@criterion(11)
def test_criterion_11_dial_periods():
    system = get_system("successor-map")
    scheme = system.scheme
    samples = [(p, v) for p in range(2, 16)
               for v in range(1, min(p, 5))]
    assert len(samples) == 50
    for position, value in samples:
        window = {q: (value if q == position else 0)
                  for q in range(2, position + 1)}
        x = make_point(scheme, window, 0)
        verdict = pointwise_period_verdict(system, x, period_max=16)
        assert verdict.holds, (position, value)
        assert verdict.certificate["period"] == position + 1
    assert max(p + 1 for p, _ in samples) >= 12
    zero = pointwise_period_verdict(system, system.point("zero"),
                                    period_max=16)
    assert zero.holds and zero.certificate["period"] == 1


@criterion(12)
def test_criterion_12_tower_rotations():
    system = get_system("circle-stack")
    limit = system.point("limit")
    for level in range(1, 21):
        point = system.family("level", level)
        radius = Fraction(level, level + 1)
        assert radius.denominator == level + 1
        assert system.act(level + 1, point) == point
        for k in range(1, level + 1):
            assert system.act(k, point) != point
        # near the midpoint of the period the angle swing is large
        iterate = (level + 2) // 2
        moved = system.act(iterate, point)
        swing = (moved.turn - point.turn) % 1
        assert swing == Fraction(iterate, level + 1) % 1
        assert min(swing, 1 - swing) >= Fraction(1, 4)
        assert system.act(iterate, limit) == limit
    assert system.act(12345, limit) == limit


@criterion(13)
def test_criterion_13_translate_tiling():
    system = get_system("odometer")
    zero = system.point("zero")
    for depth in range(1, 6):
        size = 2 ** depth
        verdict = translate_cover_verdict(system, zero, horizon=size,
                                          depth=depth, cover_cap=size)
        assert verdict.holds
        assert verdict.certificate["cover"] == list(range(size))
        assert verdict.certificate["cover_size"] == size
        # minimality: distinct translates open distinct depth cells, so
        # no smaller family can cover
        patterns = {tuple(system.act(k, zero).value(j) for j in range(depth))
                    for k in range(size)}
        assert len(patterns) == size


@criterion(14)
def test_criterion_14_determinism():
    config = str(ROOT / "configs" / "default.json")
    with tempfile.TemporaryDirectory() as scratch:
        reports = []
        for name in ("first.md", "second.md"):
            target = os.path.join(scratch, name)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "zerodim.cli", "verify",
                 "--config", config, "--out", target],
                cwd=str(ROOT), capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr
            assert elapsed < 120.0, "verify run took %.1fs" % elapsed
            with open(target, "rb") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]
        assert reports[0].startswith(b"# Consistency run")
