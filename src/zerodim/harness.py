"""Cross-checks between analyzers, run from a declarative config.

A check bundles several analyzer verdicts about one system (or about
group-level structure) and evaluates whether they fit together the way
the library's documented implications say they must.  The outcome is

* CONSISTENT   -- the computed verdicts satisfy the implication,
* VIOLATION    -- definite verdicts contradict it, which means a bug
                  somewhere (or a false assertion in the config),
* INCONCLUSIVE -- a needed verdict could not be established.

Hypotheses that cannot be computed (for example that a phase space is
totally disconnected) enter as explicit assertions in the config entry
and are flagged as such in the report; a false assertion is the
intended way to demonstrate a VIOLATION.
"""

from __future__ import annotations

import inspect
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .analysis import (ap_verdict, confinement_verdict,
                       equicontinuity_verdict, invariant_core,
                       orbit_symmetry_verdict, pair_type1_verdict,
                       pointwise_period_verdict, proximal_verdict,
                       regional_proximal_check, regular_ap_verdict,
                       standard_rp_witness, translate_cover_verdict,
                       type1_verdict, type2_verdict, usc_verdict)
from .cantor import clopen
from .errors import UsageError
from .flows import get_system
from .groups import IntegerGroup, is_syndetic_window, is_thick_window
from .subgroups import (IntegerSubgroup, all_subgroups, dihedral_group,
                        intersect_subgroups, normal_core, subgroup_index,
                        symmetric_group)
from .verdict import fails, holds

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

_RANK = {CONSISTENT: 0, INCONCLUSIVE: 1, VIOLATION: 2}


@dataclass(frozen=True)
class CheckReport:
    """Result of one consistency check."""

    check_id: str
    subject: str
    claim: str
    outcome: str
    verdicts: tuple
    asserted: tuple = ()
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "subject": self.subject,
            "claim": self.claim,
            "outcome": self.outcome,
            "verdicts": [v.to_json() for v in self.verdicts],
            "asserted": list(self.asserted),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class HarnessRun:
    """All reports of one config run, worst outcome first in summaries."""

    reports: tuple

    @property
    def outcome(self) -> str:
        worst = CONSISTENT
        for r in self.reports:
            if _RANK[r.outcome] > _RANK[worst]:
                worst = r.outcome
        return worst

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "reports": [r.to_json() for r in self.reports],
        }

    def render_markdown(self) -> str:
        lines = ["# Consistency run", "",
                 "Overall outcome: **%s** (%d checks)"
                 % (self.outcome, len(self.reports)), ""]
        for r in self.reports:
            lines.append("## %s @ %s" % (r.check_id, r.subject))
            lines.append("")
            lines.append("Outcome: **%s**" % r.outcome)
            if r.asserted:
                lines.append("")
                lines.append("Asserted hypotheses (not computed): "
                             + ", ".join("`%s`" % a for a in r.asserted))
            lines.append("")
            lines.append(r.claim)
            lines.append("")
            for v in r.verdicts:
                lines.append("- `%s`" % v.render())
            for n in r.notes:
                lines.append("- note: %s" % n)
            lines.append("")
        return "\n".join(lines)


def _asserted_tags(asserted: Mapping) -> tuple:
    return tuple("%s=%s" % (k, str(asserted[k]).lower())
                 for k in sorted(asserted) if asserted[k] is not None)


def _usage_error(cid: str, key: str, kind: str, value) -> UsageError:
    return UsageError("check %r: %r must be %s, got %r"
                      % (cid, key, kind, value))


# the JSON type a check parameter's default fixes for its config key,
# as (description, test): an integer is exact (no float, bool or "8"),
# a tuple of names takes a list of strings, and an ``asserted`` default
# maps each hypothesis the check reads to None (not asserted) and takes
# JSON booleans only (not the string "true")
_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    str: ("a string", lambda v: type(v) is str),
    tuple: ("a list of strings", lambda v: type(v) is list
            and all(type(n) is str for n in v)),
    dict: ("a map from names to booleans",
           lambda v: isinstance(v, Mapping)
           and all(type(k) is str and type(b) is bool
                   for k, b in v.items())),
}


# ---------------------------------------------------------------------------
# individual checks


def _check_recurrence_symmetry(
        *, system="odometer", horizon=8, depth=2,
        asserted={"pointwise-recurrent": None}) -> CheckReport:
    system = get_system(system)
    names = sorted(system.point_names())
    recs = {n: type1_verdict(system, system.point(n), horizon=horizon,
                             depth=depth) for n in names}
    pairs = [(system.point(a), system.point(b))
             for a, b in itertools.permutations(names, 2)]
    sym = orbit_symmetry_verdict(system, pairs, horizon=horizon, depth=depth)
    verdicts = tuple(recs[n] for n in names) + (sym,)
    notes = []
    claim = ("if every sampled point returns to its own depth cell in "
             "both directions, then every established reach between "
             "sampled points must be matched by a reverse reach; a broken "
             "reverse reach must come with a non-returning sample")
    nonret = sorted(n for n in names if recs[n].fails)
    if asserted["pointwise-recurrent"] is True and nonret:
        outcome = VIOLATION
        notes.append("asserted pointwise recurrence contradicted at "
                     "sampled point(s): %s" % ", ".join(nonret))
    elif sym.fails and not nonret:
        outcome = VIOLATION
        notes.append("reverse reach broken although every sampled point "
                     "returns both ways")
    elif sym.fails:
        outcome = CONSISTENT
        notes.append("broken reverse reach accompanied by non-returning "
                     "sample(s): %s" % ", ".join(nonret))
    elif sym.inconclusive:
        outcome = CONSISTENT
        notes.append("some sampled pairs show no reach either way at this "
                     "horizon; the symmetry requirement is vacuous there")
    else:
        outcome = CONSISTENT
        notes.append("all sampled reaches are two-way")
    return CheckReport("recurrence-vs-reach-symmetry", system.system_id,
                       claim, outcome, verdicts, _asserted_tags(asserted),
                       tuple(notes))


def _check_one_way_reach(*, system="full-shift", source="step",
                         target="zero", horizon=8, depth=2) -> CheckReport:
    system = get_system(system)
    # type1_verdict below needs Z: reject other groups before searching
    system.require_integer_action()
    source, target = system.point(source), system.point(target)
    sym = orbit_symmetry_verdict(system, [(source, target)],
                                 horizon=horizon, depth=depth)
    conf = confinement_verdict(system, target, system.cell(target, depth),
                               horizon=horizon)
    rec_src = type1_verdict(system, source, horizon=horizon, depth=depth)
    rec_tgt = type1_verdict(system, target, horizon=horizon, depth=depth)
    sep = system.distance(source, target)
    verdicts = (sym, conf, rec_src, rec_tgt)
    claim = ("a target confined to its own depth cell and separated from "
             "the source can never reach back, so an established forward "
             "reach is certifiably one-way; one-way reach in the sample "
             "must come with a non-returning sample point")
    notes = ["separation distance %s" % sep]
    wide = sep > 2 * Fraction(1, 2 ** depth)
    if conf.holds and wide and sym.holds:
        outcome = VIOLATION
        notes.append("reverse reach reported although the target cannot "
                     "leave its cell")
    elif sym.fails and rec_src.holds and rec_tgt.holds:
        outcome = VIOLATION
        notes.append("one-way reach although both endpoints return both "
                     "ways")
    elif sym.fails:
        outcome = CONSISTENT
        notes.append("one-way reach explained by a non-returning endpoint")
    elif sym.inconclusive:
        outcome = INCONCLUSIVE
        notes.append("forward reach not established within horizon")
    else:
        outcome = CONSISTENT
    return CheckReport("one-way-reach-blocks-return", system.system_id,
                       claim, outcome, verdicts, (), tuple(notes))


def _check_cone_syndetic(*, system="odometer", point="zero", horizon=8,
                         depth=2) -> CheckReport:
    system = get_system(system)
    x = system.point(point)
    t2 = type2_verdict(system, x, horizon=horizon, depth=depth)
    ap = ap_verdict(system, x, horizon=horizon, depth=depth)
    claim = ("bounded returns inside every tail reach cone force the "
             "return times to be syndetic over the same horizon")
    if t2.holds and ap.fails:
        outcome, note = VIOLATION, ("cone returns bounded yet an empty "
                                    "return window was found")
    elif t2.holds and ap.holds:
        outcome, note = CONSISTENT, "both probes positive"
    elif t2.fails and ap.holds:
        outcome, note = CONSISTENT, ("cone probe negative at this horizon; "
                                     "the implication is one-way")
    else:
        outcome, note = CONSISTENT, "both probes negative"
    return CheckReport("cone-returns-give-syndetic", system.system_id,
                       claim, outcome, (t2, ap), (), (note,))


def _check_joint_returns(*, system="thue-morse", point_x="reflection",
                         point_y="reflection-flipped", horizon=32, depth=2,
                         modulus_horizon=16) -> CheckReport:
    system = get_system(system)
    x, y = system.point(point_x), system.point(point_y)
    eq = equicontinuity_verdict(system, horizon=modulus_horizon,
                                depth=depth + 1)
    apx = ap_verdict(system, x, horizon=horizon, depth=depth)
    apy = ap_verdict(system, y, horizon=horizon, depth=depth)
    pr = pair_type1_verdict(system, x, y, horizon=horizon, depth=depth)
    claim = ("under a stabilized input-depth modulus, two points with "
             "syndetic return times must also return simultaneously; a "
             "jointly non-returning pair of individually recurrent points "
             "therefore forces the modulus to keep growing")
    notes = []
    if eq.holds and apx.holds and apy.holds and pr.fails:
        outcome = VIOLATION
        notes.append("joint returns missing although the modulus "
                     "stabilized and both points are recurrent")
    elif pr.fails and apx.holds and apy.holds:
        outcome = CONSISTENT
        notes.append("joint failure matched by a growing modulus table")
    else:
        outcome = CONSISTENT
        notes.append("no forcing configuration present")
    return CheckReport("joint-returns-under-uniform-modulus",
                       system.system_id, claim, outcome,
                       (eq, apx, apy, pr), (), tuple(notes))


def _check_orbit_trace_continuity(
        *, system="circle-stack", point="limit", horizon=8, depth=3,
        neighbor_depth_max=4,
        asserted={"totally-disconnected": None}) -> CheckReport:
    system = get_system(system)
    x = system.point(point)
    rec = type1_verdict(system, x, horizon=max(2, horizon // 2),
                        depth=depth)
    usc = usc_verdict(system, x, horizon=horizon, depth=depth,
                      neighbor_depth_max=neighbor_depth_max)
    claim = ("on a totally disconnected phase space, a point returning "
             "to its own cell keeps the orbit trace of every fine enough "
             "neighbor inside its own orbit trace; with connected pieces "
             "in the space this control may break down")
    notes = []
    flag = asserted["totally-disconnected"]
    if usc.holds:
        outcome = CONSISTENT
        notes.append("orbit trace controlled at the tested resolutions")
    elif flag is True and rec.holds:
        outcome = VIOLATION
        notes.append("trace control broke although the space was asserted "
                     "totally disconnected and the point returns")
    elif flag is False:
        outcome = CONSISTENT
        notes.append("breakdown permitted: the space was asserted to have "
                     "connected pieces")
    else:
        outcome = INCONCLUSIVE
        notes.append("space connectivity not asserted; the hypothesis "
                     "cannot be evaluated")
    return CheckReport("recurrent-orbit-trace-continuity", system.system_id,
                       claim, outcome, (rec, usc), _asserted_tags(asserted),
                       tuple(notes))


def _check_modulus_continuity(*, system="odometer", horizon=8, depth=2,
                              neighbor_depth_max=4,
                              points=("one", "zero")) -> CheckReport:
    system = get_system(system)
    names = sorted(points)
    eq = equicontinuity_verdict(system, horizon=max(4, horizon), depth=depth)
    uscs = [usc_verdict(system, system.point(n), horizon=horizon,
                        depth=depth, neighbor_depth_max=neighbor_depth_max)
            for n in names]
    claim = ("a stabilized input-depth modulus keeps every sampled "
             "orbit trace stable under fine perturbation")
    bad = [n for n, v in zip(names, uscs) if v.fails]
    if eq.holds and bad:
        outcome = VIOLATION
        note = ("modulus stabilized yet the orbit trace escapes at: "
                + ", ".join(bad))
    elif eq.holds:
        outcome, note = CONSISTENT, "modulus and all sampled traces stable"
    else:
        outcome, note = CONSISTENT, "modulus did not stabilize; no forcing"
    return CheckReport("uniform-modulus-gives-orbit-continuity",
                       system.system_id, claim, outcome,
                       tuple([eq] + uscs), (), (note,))


def _check_regular_tiling(*, system="odometer", point="zero", horizon=8,
                          depth=2, cover_cap=16) -> CheckReport:
    system = get_system(system)
    x = system.point(point)
    ra = regular_ap_verdict(system, x, horizon=horizon, depth=depth)
    tc = translate_cover_verdict(system, x, horizon=horizon, depth=depth,
                                 cover_cap=cover_cap)
    claim = ("return times containing all multiples of one modulus admit "
             "a translate cover of the horizon by at most modulus many "
             "shifts")
    notes = []
    if ra.holds:
        kappa = ra.certificate["modulus"]
        notes.append("modulus %d" % kappa)
        if tc.fails:
            outcome = VIOLATION
            notes.append("no translate cover found despite full multiples")
        elif len(tc.certificate["cover"]) > kappa:
            outcome = VIOLATION
            notes.append("cover needs %d > %d shifts"
                         % (len(tc.certificate["cover"]), kappa))
        else:
            outcome = CONSISTENT
            notes.append("cover %s" % tc.certificate["cover"])
    elif tc.holds:
        outcome = CONSISTENT
        notes.append("cover exists without a full modulus; implication "
                     "is one-way")
    else:
        outcome = CONSISTENT
        notes.append("neither probe positive")
    return CheckReport("regular-returns-tile-horizon", system.system_id,
                       claim, outcome, (ra, tc), (), tuple(notes))


def _check_periodic_cells(*, system="successor-map", period_max=8, depth=3,
                          horizon=6) -> CheckReport:
    system = get_system(system)
    pts = [("zero", system.point("zero")), ("unit", system.point("unit")),
           ("unit-at(4)", system.family("unit-at", 4))]
    pps = [pointwise_period_verdict(system, p, period_max=period_max)
           for _, p in pts]
    target = clopen(system.scheme, system.scheme.start, [(0,)])
    core = invariant_core(system, target, depth=depth, horizon=horizon)
    core2 = invariant_core(system, target, depth=depth, horizon=2 * horizon)
    claim = ("every sampled point is exactly periodic, with periods "
             "growing along the sample, and the first-coordinate cell "
             "splits the space into exactly invariant clopen pieces that "
             "do not move when the horizon doubles")
    notes = []
    if any(v.inconclusive for v in pps):
        outcome = INCONCLUSIVE
        notes.append("a sampled period exceeds the cap")
    else:
        periods = [v.certificate["period"] for v in pps]
        notes.append("sample periods %s" % periods)
        exact = (core.inner == core.outer and core.inner
                 and core.excluded and not core.unknown)
        stable = core.inner == core2.inner
        if not exact:
            outcome = VIOLATION
            notes.append("invariant cell family not exact: inner %d, "
                         "outer %d, unknown %d"
                         % (len(core.inner), len(core.outer),
                            len(core.unknown)))
        elif not stable:
            outcome = VIOLATION
            notes.append("invariant cells changed when the horizon doubled")
        elif periods != sorted(set(periods)):
            outcome = INCONCLUSIVE
            notes.append("sample periods do not grow strictly")
        else:
            outcome = CONSISTENT
            notes.append("invariant cells: %d in, %d out, stable under "
                         "horizon doubling"
                         % (len(core.inner), len(core.excluded)))
    return CheckReport("pointwise-periodic-invariant-cells",
                       system.system_id, claim, outcome, tuple(pps), (),
                       tuple(notes))


def _check_regional_not_proximal(*, system="two-copy", depth=3,
                                 horizon=3) -> CheckReport:
    system = get_system(system)
    witness = standard_rp_witness(system, depth)
    rp = regional_proximal_check(system, witness, depth=depth)
    px = proximal_verdict(system, witness.x, witness.y, horizon=horizon,
                          depth=max(2, depth - 1))
    claim = ("the designated pair is pushed together along arbitrarily "
             "fine approximations of its endpoints, yet no single group "
             "element pushes the pair itself together")
    if rp.fails:
        outcome, note = VIOLATION, "approach chain failed verification"
    elif px.holds:
        outcome, note = VIOLATION, ("pair became proximal although its "
                                    "distance should stay bounded below")
    else:
        outcome, note = CONSISTENT, ("approach chain verified; pair stays "
                                     "separated")
    return CheckReport("regional-approach-without-proximality",
                       system.system_id, claim, outcome, (rp, px), (),
                       (note,))


# the finite group samples, with the largest n whose order (n! or 2n)
# is at most 120: S5 already takes seconds to survey
SAMPLE_GROUPS = {"sym": (symmetric_group, 5), "dihedral": (dihedral_group, 60)}


def _sample_group(tag: str):
    """The group a ``samples`` tag names, checked before any permutation
    is built: n is written in plain decimal and within its bound."""
    kind, _, n = tag.partition("-")
    build, n_max = SAMPLE_GROUPS.get(kind, (None, 0))
    if not re.fullmatch("[1-9][0-9]?", n) or int(n) > n_max:
        kinds = " or ".join("%s-<n> with 1 <= n <= %d" % (k, m)
                            for k, (_, m) in SAMPLE_GROUPS.items())
        raise _usage_error("syndetic-subgroup-normal-core", "samples",
                           kinds, tag)
    return build(int(n))


def _check_subgroup_cores(*, samples=("sym-3", "dihedral-4")) -> CheckReport:
    groups = [_sample_group(tag) for tag in samples]
    claim = ("inside every sampled finite group, each subgroup contains "
             "its conjugate-stable part as a normal subgroup of finite "
             "index, and that part is the largest normal subgroup inside "
             "it")
    verdicts = []
    bad = []
    total = 0
    for G in groups:
        subs = all_subgroups(G)
        normals = [K for K in subs if K.is_normal()]
        group_bad = []
        for H in subs:
            total += 1
            N = normal_core(G, H)
            ok = (N.is_normal()
                  and N.members <= H.members
                  and subgroup_index(G, H) <= subgroup_index(G, N)
                  and subgroup_index(G, N) >= 1)
            largest = max((len(K.members) for K in normals
                           if K.members <= H.members), default=0)
            if not ok or len(N.members) != largest:
                group_bad.append("%s: subgroup of order %d"
                                 % (G.label, len(H.members)))
        verdicts.append(holds("subgroup-core-survey", {"group": G.label},
                              {"subgroups": len(subs)})
                        if not group_bad else
                        fails("subgroup-core-survey", {"group": G.label},
                              {"failures": group_bad}))
        bad.extend(group_bad)
    outcome = VIOLATION if bad else CONSISTENT
    note = ("%d subgroups across %d groups verified" % (total, len(groups))
            if not bad else "failures: " + "; ".join(bad))
    return CheckReport("syndetic-subgroup-normal-core",
                       "+".join(g.label for g in groups), claim, outcome,
                       tuple(verdicts), (), (note,))


def _check_syndetic_thick_duality(*, window=24) -> CheckReport:
    Z = IntegerGroup()
    claim = ("a set of integers has bounded gaps exactly when its "
             "complement contains no matching run; bounded-gap subgroups "
             "keep bounded gaps under intersection, with the gap equal "
             "to the index")
    verdicts = []
    notes = []
    bad = []
    samples = [("multiples-of-%d" % m, IntegerSubgroup(m).contains, m)
               for m in (2, 3, 6)]
    finite = set(range(-5, 6))
    samples.append(("interval-[-5,5]", lambda g: g in finite, 3))
    for label, member, k in samples:
        sy = is_syndetic_window(Z, member, k, window)
        th = is_thick_window(Z, lambda g: not member(g), k, window - 2 * k)
        verdicts.extend([sy, th])
        if sy.holds and th.holds:
            bad.append("%s: bounded gaps with a matching complement run"
                       % label)
        if sy.fails and th.fails:
            bad.append("%s: a gap beyond %d but no complement run found"
                       % (label, k))
        if sy.inconclusive or th.inconclusive:
            bad.append("%s: probe inconclusive" % label)
        notes.append("%s: gaps-bounded %s, complement-run %s"
                     % (label, sy.status.value, th.status.value))
    meet = intersect_subgroups(Z, [IntegerSubgroup(3), IntegerSubgroup(4)])
    sy_meet = is_syndetic_window(Z, meet.contains, meet.index(), 26)
    verdicts.append(sy_meet)
    if meet.index() != 12 or not sy_meet.holds \
            or sy_meet.certificate.get("max_gap") != 12:
        bad.append("intersection of gap-3 and gap-4 subgroups is off")
    else:
        notes.append("gap-3 meet gap-4 has gap exactly 12")
    outcome = VIOLATION if bad else CONSISTENT
    if bad:
        notes.extend(bad)
    return CheckReport("syndetic-thick-duality", "integers", claim, outcome,
                       tuple(verdicts), (), tuple(notes))


CHECKS: dict = {
    "recurrence-vs-reach-symmetry": _check_recurrence_symmetry,
    "one-way-reach-blocks-return": _check_one_way_reach,
    "cone-returns-give-syndetic": _check_cone_syndetic,
    "joint-returns-under-uniform-modulus": _check_joint_returns,
    "recurrent-orbit-trace-continuity": _check_orbit_trace_continuity,
    "uniform-modulus-gives-orbit-continuity": _check_modulus_continuity,
    "regular-returns-tile-horizon": _check_regular_tiling,
    "pointwise-periodic-invariant-cells": _check_periodic_cells,
    "regional-approach-without-proximality": _check_regional_not_proximal,
    "syndetic-subgroup-normal-core": _check_subgroup_cores,
    "syndetic-thick-duality": _check_syndetic_thick_duality,
}


def available_checks() -> tuple:
    return tuple(sorted(CHECKS))


def _bind(entry: Mapping) -> tuple:
    """The check an entry names and its keyword arguments.  Every
    other key of the entry must be a keyword parameter of the check, of
    the JSON type its default fixes; ``asserted`` may name only the
    hypotheses its default lists."""
    if not isinstance(entry, Mapping):
        raise UsageError("check entry must be a JSON object, got %r"
                         % (entry,))
    cid = entry.get("check")
    if type(cid) is not str or cid not in CHECKS:
        raise UsageError("unknown check %r (have: %s)"
                         % (cid, ", ".join(available_checks())))
    check = CHECKS[cid]
    # a tracing wrapper keeps the check itself on __wrapped__
    defaults = inspect.unwrap(check).__kwdefaults__
    kwargs = {}
    for key, value in entry.items():
        if key == "check":
            continue
        if key not in defaults:
            raise UsageError("check %r: unknown key %r (have: %s)"
                             % (cid, key, ", ".join(sorted(defaults))))
        default = defaults[key]
        kind, ok = _KINDS[type(default)]
        if not ok(value):
            raise _usage_error(cid, key, kind, value)
        if type(default) is dict:
            unknown = sorted(set(value) - set(default))
            if unknown:
                raise UsageError("check %r: unknown hypothesis %r (have: %s)"
                                 % (cid, unknown[0],
                                    ", ".join(sorted(default))))
            value = {**default, **value}
        kwargs[key] = value
    return check, kwargs


def run_check(entry: Mapping) -> CheckReport:
    check, kwargs = _bind(entry)
    return check(**kwargs)


def run_config(config: Mapping) -> HarnessRun:
    """Run every check of a config, once every entry has bound."""
    if not isinstance(config, Mapping):
        raise UsageError("config must be a JSON object, got %r" % (config,))
    entries = config.get("checks")
    if not isinstance(entries, list) or not entries:
        raise UsageError("config needs a non-empty 'checks' list")
    bound = [_bind(e) for e in entries]
    return HarnessRun(tuple(check(**kwargs) for check, kwargs in bound))
