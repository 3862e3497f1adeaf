"""Command line workbench: list, analyze, verify, gallery.

``list`` enumerates systems, analyzers, and consistency checks;
``analyze`` runs one analyzer on one system and prints its verdict;
``verify`` runs a consistency config and reports per-check outcomes;
``gallery`` prints a guided tour across the bundled systems.

Exit codes: 0 when a definite result was computed (CONSISTENT for
verify), 2 when the result is inconclusive, 3 when verify found a
violation, 64 for usage errors, 66 for a missing input file, 1 for
any other workbench error.  Output is deterministic; wall-clock
timings appear only with ``--timings``.

The argument parser is built once per process, on the first call to
``main``; later in-process calls reuse it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import time
from typing import Optional, Sequence

from .analysis import (ap_verdict, confinement_verdict,
                       equicontinuity_verdict, orbit_symmetry_verdict,
                       pair_type1_verdict, pointwise_period_verdict,
                       proximal_verdict, regional_proximal_check,
                       regular_ap_verdict, standard_rp_witness,
                       translate_cover_verdict, type1_verdict,
                       type2_verdict, uniform_recurrence_verdict,
                       usc_verdict, weak_rigidity_verdict)
from .config import default_config, load_config
from .errors import DomainError, UsageError, WorkbenchError
from .flows import available_systems, get_system
from .harness import available_checks, run_config

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_INCONCLUSIVE = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64
EXIT_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _default_point(system) -> str:
    names = sorted(system.point_names())
    if not names:
        raise DomainError("system %r has no named points" % system.system_id)
    return "zero" if "zero" in names else names[0]


def _points(system, ns, count: int) -> list:
    names = list(ns.point or [])
    if names and len(names) != count:
        raise UsageError("analyzer %r needs exactly %d --point arguments"
                         % (ns.analyzer, count))
    if not names:
        if count > 1:
            raise UsageError("analyzer %r needs %d --point arguments"
                             % (ns.analyzer, count))
        names = [_default_point(system)]
    return [system.point(n) for n in names]


def _run_rigidity(system, ns):
    names = list(ns.point or sorted(system.point_names()))
    pts = [system.point(n) for n in names]
    return weak_rigidity_verdict(system, pts, horizon=ns.horizon,
                                 depth=ns.depth)


def _run_confinement(system, ns):
    x = _points(system, ns, 1)[0]
    return confinement_verdict(system, x, system.cell(x, ns.depth),
                               horizon=ns.horizon)


def _run_usc(system, ns):
    ndm = (ns.depth + 2 if ns.neighbor_depth_max is None
           else ns.neighbor_depth_max)
    return usc_verdict(system, _points(system, ns, 1)[0],
                       horizon=ns.horizon, depth=ns.depth,
                       neighbor_depth_max=ndm)


def _run_symmetry(system, ns):
    names = list(ns.point or [])
    if names:
        if len(names) != 2:
            raise UsageError("orbit-symmetry takes exactly two --point "
                             "arguments, or none for all named pairs")
        pairs = [(system.point(names[0]), system.point(names[1]))]
    else:
        pairs = [(system.point(a), system.point(b)) for a, b in
                 itertools.permutations(sorted(system.point_names()), 2)]
    return orbit_symmetry_verdict(system, pairs, horizon=ns.horizon,
                                  depth=ns.depth)


def _run_regional(system, ns):
    witness = standard_rp_witness(system, ns.depth)
    return regional_proximal_check(system, witness, depth=ns.depth)


_PROBE = ("horizon", "depth")

# analyzer name -> (verdict function, number of --point arguments, the
# options it reads as keywords); an analyzer that builds its own
# arguments maps to a runner taking (system, ns) instead
ANALYZERS: dict = {
    "almost-periodic": (ap_verdict, 1, _PROBE),
    "regular-return": (regular_ap_verdict, 1, _PROBE),
    "pointwise-period": (pointwise_period_verdict, 1, ("period_max",)),
    "two-sided-recurrence": (type1_verdict, 1, _PROBE),
    "pair-recurrence": (pair_type1_verdict, 2, _PROBE),
    "cone-subnet-recurrence": (type2_verdict, 1, _PROBE),
    "weak-rigidity": _run_rigidity,
    "orbit-confinement": _run_confinement,
    "orbit-upper-semicontinuity": _run_usc,
    "orbit-symmetry": _run_symmetry,
    "equicontinuity": (equicontinuity_verdict, 0, _PROBE),
    "uniform-recurrence": (uniform_recurrence_verdict, 0,
                           ("word_length", "window_max")),
    "proximal-pair": (proximal_verdict, 2, _PROBE),
    "regional-proximal": _run_regional,
    "translate-cover": (translate_cover_verdict, 1,
                        _PROBE + ("cover_cap",)),
}


def _run_analyzer(system, ns):
    entry = ANALYZERS[ns.analyzer]
    if callable(entry):
        return entry(system, ns)
    analyzer, count, options = entry
    points = _points(system, ns, count) if count else []
    return analyzer(system, *points,
                    **{name: getattr(ns, name) for name in options})


def available_analyzers() -> tuple:
    return tuple(sorted(ANALYZERS))


# ---------------------------------------------------------------------------
# gallery


def _notes(system, rng) -> list:
    """The gallery lines of a system that are not an analyzer verdict."""
    if system.system_id == "full-shift":
        n = rng.randint(2, 6)
        return ["shifting the step point by %d gives %s" % (n, system
                .format_point(system.act(n, system.point("step"))))]
    if system.system_id == "thue-morse":
        return ["words of length 3: %s" % sorted(system.language(3))]
    if system.system_id == "successor-map":
        return ["period of %s: %s"
                % (name, pointwise_period_verdict(system, pt, period_max=8)
                   .certificate.get("period"))
                for name, pt in [("zero", system.point("zero")),
                                 ("unit", system.point("unit")),
                                 ("unit-at(4)", system.family("unit-at", 4))]]
    return []


# system -> the ``zerodim analyze <system>`` argument lines whose
# rendered verdicts the gallery shows after the system's notes
GALLERY: dict = {
    "full-shift": ("almost-periodic --point step",
                   "uniform-recurrence --window-max 6"),
    "thue-morse": ("almost-periodic --point reflection --horizon 16",
                   "uniform-recurrence --window-max 6",
                   "pair-recurrence --point reflection "
                   "--point reflection-flipped --horizon 16"),
    "odometer": ("regular-return --point zero",
                 "translate-cover --point zero --cover-cap 8",
                 "equicontinuity"),
    "successor-map": (),
    "two-copy": ("proximal-pair --point o-plus --point o-minus --horizon 2",
                 "regional-proximal --depth 3"),
    "mcmahon": ("proximal-pair --point marked --point base --horizon 2",
                "regional-proximal --depth 3"),
    "circle-stack": ("equicontinuity",
                     "orbit-upper-semicontinuity --point limit --depth 3 "
                     "--neighbor-depth-max 4"),
    "circle-stack-components": ("equicontinuity",),
}


@functools.cache
def _analyze_args(argv: tuple) -> argparse.Namespace:
    """``argv`` parsed as a command line, once per process."""
    return _build_parser().parse_args(argv)


def _gallery_sections(seed: int) -> list:
    rng = random.Random(seed)
    sections = []
    for system_id, analyses in GALLERY.items():
        system = get_system(system_id)
        lines = [system.summary] + _notes(system, rng)
        for line in analyses:
            ns = _analyze_args(("analyze", system_id, *line.split()))
            lines.append(_run_analyzer(system, ns).render())
        sections.append({"system": system_id, "title": system.describe(),
                         "lines": lines})
    return sections


# ---------------------------------------------------------------------------
# command implementations


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_list(ns) -> int:
    systems = []
    for sid in available_systems():
        system = get_system(sid)
        systems.append({"id": sid, "kind": system.kind,
                        "summary": system.summary,
                        "points": sorted(system.point_names()),
                        "families": sorted(system.family_names())})
    if ns.json:
        _emit(_to_json({"systems": systems,
                        "analyzers": list(available_analyzers()),
                        "checks": list(available_checks())}), ns.out)
        return EXIT_OK
    lines = ["systems:"]
    for s in systems:
        lines.append("  %-25s %s" % (s["id"], s["summary"]))
        extras = []
        if s["points"]:
            extras.append("points: " + ", ".join(s["points"]))
        if s["families"]:
            extras.append("families: " + ", ".join(s["families"]))
        if extras:
            lines.append("  %-25s %s" % ("", "; ".join(extras)))
    lines.append("analyzers:")
    for a in available_analyzers():
        lines.append("  " + a)
    lines.append("checks:")
    for c in available_checks():
        lines.append("  " + c)
    _emit("\n".join(lines), ns.out)
    return EXIT_OK


def _cmd_analyze(ns) -> int:
    system = get_system(ns.system)
    if ns.analyzer not in ANALYZERS:
        raise UsageError("unknown analyzer %r (have: %s)"
                         % (ns.analyzer, ", ".join(available_analyzers())))
    verdict = _run_analyzer(system, ns)
    if ns.json:
        _emit(_to_json(verdict.to_json()), ns.out)
    else:
        _emit(verdict.render(), ns.out)
    return EXIT_INCONCLUSIVE if verdict.inconclusive else EXIT_OK


def _cmd_verify(ns) -> int:
    config = load_config(ns.config) if ns.config else default_config()
    start = time.perf_counter()
    run = run_config(config)
    elapsed = time.perf_counter() - start
    if ns.json:
        payload = run.to_json()
        if ns.timings:
            payload["elapsed_seconds"] = round(elapsed, 3)
        _emit(_to_json(payload), ns.out)
    else:
        text = run.render_markdown()
        if ns.timings:
            text += "\nWall time: %.3fs\n" % elapsed
        _emit(text, ns.out)
    return {"CONSISTENT": EXIT_OK, "INCONCLUSIVE": EXIT_INCONCLUSIVE,
            "VIOLATION": EXIT_VIOLATION}[run.outcome]


def _cmd_gallery(ns) -> int:
    sections = _gallery_sections(ns.seed)
    if ns.json:
        _emit(_to_json({"seed": ns.seed, "sections": sections}), ns.out)
        return EXIT_OK
    lines = ["# System gallery", ""]
    for sec in sections:
        lines.append("## " + sec["title"])
        lines.append("")
        for l in sec["lines"]:
            lines.append("- " + l)
        lines.append("")
    _emit("\n".join(lines), ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the life of
    the process.  Reuse is exact: parsing leaves the parser unchanged,
    ``append`` options start from a fresh list on every call, and every
    subparser is a ``_Parser`` whose errors raise ``UsageError``."""
    parser = _Parser(prog="zerodim",
                     description="workbench for recurrence analysis on "
                                 "zero-dimensional and tower systems")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")

    p = sub.add_parser("list", help="show systems, analyzers, and checks")
    common(p)

    p = sub.add_parser("analyze", help="run one analyzer on one system")
    common(p)
    p.add_argument("system", help="system id (see: zerodim list)")
    p.add_argument("analyzer", help="analyzer name (see: zerodim list)")
    p.add_argument("--point", action="append", metavar="NAME",
                   help="named point; repeat for pair analyzers")
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--period-max", type=int, default=16, dest="period_max")
    p.add_argument("--neighbor-depth-max", type=int, default=None,
                   dest="neighbor_depth_max")
    p.add_argument("--word-length", type=int, default=1, dest="word_length")
    p.add_argument("--window-max", type=int, default=8, dest="window_max")
    p.add_argument("--cover-cap", type=int, default=16, dest="cover_cap")

    p = sub.add_parser("verify", help="run a consistency config")
    common(p)
    p.add_argument("--config", metavar="PATH",
                   help="config JSON (defaults to the standard battery)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timing in the output")

    p = sub.add_parser("gallery", help="guided tour across the systems")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled choices")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_help()
            return EXIT_USAGE
        handler = {"list": _cmd_list, "analyze": _cmd_analyze,
                   "verify": _cmd_verify, "gallery": _cmd_gallery}
        return handler[ns.command](ns)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print("missing file: %s" % exc, file=sys.stderr)
        return EXIT_NOINPUT
    except WorkbenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
