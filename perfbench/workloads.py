"""The benchmark's three workloads, generated from a seed.

A workload is a fixed list of tasks.  Each task is one library call
(``run``), a conversion of its output to plain JSON (``canon``) and an
independent oracle on that JSON (``oracle``).  The seed picks points,
elements, patterns and the task order inside fixed size classes, so a
pass costs the same whatever the seed.

Tasks look every library function up on its module when they run, so
the traced run sees the wrapped names.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import zerodim as zd
from zerodim import cantor, cli, groups, harness, subgroups

import oracles as O

CONFIGS = Path(__file__).resolve().parent / "configs"
GALLERY_SYSTEMS = ["full-shift", "thue-morse", "odometer", "successor-map",
                   "two-copy", "mcmahon", "circle-stack",
                   "circle-stack-components"]
HORIZONS = (64, 128, 256, 512)
DEPTHS = (2, 3, 4)


class Task(NamedTuple):
    family: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    oracle: Callable[[object], bool]


def _to_json(x) -> object:
    return x.to_json()


def _analyzer(family: str, name: str, args: tuple, kwargs: dict,
              oracle: Callable) -> Task:
    return Task(family, lambda: getattr(zd, name)(*args, **kwargs),
                _to_json, oracle)


# ---------------------------------------------------------------------------
# recurrence-scan


def _odometer_digits(rng: random.Random, system) -> object:
    """A seeded odometer point with exactly eight explicit digits."""
    digits = [rng.randrange(2) for _ in range(7)] + [1]
    return zd.make_point(system.scheme, digits, right=0)


def recurrence_scan(rng: random.Random, systems: dict) -> tuple:
    od, fs, tm = (systems[k] for k in ("odometer", "full-shift",
                                       "thue-morse"))
    ODO = ("odometer",)
    tasks = []

    def odo_points(count: int) -> list:
        named = [od.point("zero"), od.point("one")]
        return named + [_odometer_digits(rng, od) for _ in range(count - 2)]

    def single(depth: int):
        k = rng.choice((1, -1)) * rng.randint(depth, depth + 8)
        return fs.family("single", k), ("single", k)

    def reflection(flipped: bool, max_shift: int, depth: int):
        """reflected_expansion is exact on [-R, R] only; R covers every
        probed shift plus the depth, so the oracle's infinite sequence
        and the finite model agree."""
        radius = max_shift + depth + rng.randrange(4)
        name = "reflection-flipped" if flipped else "reflection"
        return tm.family(name, radius), ("reflection", flipped)

    # short tasks: returns found within a few actions, or no actions
    for h in HORIZONS:
        for d in DEPTHS:
            kw = {"horizon": h, "depth": d}
            for x in odo_points(3):
                tasks.append(_analyzer(
                    "odometer", "type1_verdict", (od, x), kw,
                    lambda v, h=h, d=d: O.check_two_sided(v, [ODO], h, d)))
            pts = odo_points(3)
            tasks.append(_analyzer(
                "odometer", "weak_rigidity_verdict", (od, pts), kw,
                lambda v, h=h, d=d, n=len(pts):
                O.check_weak_rigidity(v, [ODO] * n, h, d)))
            tasks.append(_analyzer(
                "odometer", "equicontinuity_verdict", (od,), kw,
                lambda v, h=h, d=d: O.check_equicontinuity(v, "odometer",
                                                           h, d)))
            tasks.append(_analyzer(
                "full-shift", "type1_verdict", (fs, fs.point("alternating")),
                kw, lambda v, h=h, d=d: O.check_two_sided(
                    v, [("alternating",)], h, d)))
            x, desc = single(d)
            tasks.append(_analyzer(
                "full-shift", "type1_verdict", (fs, x), kw,
                lambda v, h=h, d=d, desc=desc: O.check_two_sided(
                    v, [desc], h, d)))
            tasks.append(_analyzer(
                "thue-morse", "equicontinuity_verdict", (tm,), kw,
                lambda v, h=h, d=d: O.check_equicontinuity(v, "shift", h, d)))

    # odometer and full-shift scans over the whole horizon
    for h, count in ((64, 8), (128, 2)):
        for d in DEPTHS:
            kw = {"horizon": h, "depth": d}
            for x in odo_points(count):
                tasks.append(_analyzer(
                    "odometer", "ap_verdict", (od, x), kw,
                    lambda v, h=h, d=d: O.check_almost_periodic(v, ODO, h, d)))
                tasks.append(_analyzer(
                    "odometer", "regular_ap_verdict", (od, x), kw,
                    lambda v, h=h, d=d: O.check_regular_return(v, ODO, h, d)))
                tasks.append(_analyzer(
                    "odometer", "translate_cover_verdict", (od, x),
                    dict(kw, cover_cap=16),
                    lambda v, d=d: O.check_translate_cover(v, 1 << d, 16)))
    for d in DEPTHS:
        kw = {"horizon": 64, "depth": d}
        for _ in range(6):
            x, desc = single(d)
            tasks.append(_analyzer(
                "full-shift", "ap_verdict", (fs, x), kw,
                lambda v, d=d, desc=desc: O.check_almost_periodic(
                    v, desc, 64, d)))
        alt = fs.point("alternating")
        tasks.append(_analyzer(
            "full-shift", "regular_ap_verdict", (fs, alt), kw,
            lambda v, d=d: O.check_regular_return(v, ("alternating",), 64, d)))
        tasks.append(_analyzer(
            "full-shift", "translate_cover_verdict", (fs, alt),
            dict(kw, cover_cap=16),
            lambda v: O.check_translate_cover(v, 2, 16)))

    # thue-morse long windows
    for h in HORIZONS:
        for d in (2, 3) + ((4,) if h >= 256 else ()):
            for flipped in (False, True):
                x, desc = reflection(flipped, h, d)
                tasks.append(_analyzer(
                    "thue-morse", "type1_verdict", (tm, x),
                    {"horizon": h, "depth": d},
                    lambda v, h=h, d=d, desc=desc: O.check_two_sided(
                        v, [desc], h, d)))
    for d in DEPTHS:
        kw = {"horizon": 64, "depth": d}
        for flipped in (False, True):
            for _ in range(2):
                x, desc = reflection(flipped, 96, d)
                tasks.append(_analyzer(
                    "thue-morse", "ap_verdict", (tm, x), kw,
                    lambda v, d=d, desc=desc: O.check_almost_periodic(
                        v, desc, 64, d)))
            x, desc = reflection(flipped, 64, d)
            tasks.append(_analyzer(
                "thue-morse", "regular_ap_verdict", (tm, x), kw,
                lambda v, d=d, desc=desc: O.check_regular_return(
                    v, desc, 64, d)))
        for h in (64, 128):
            (x, dx), (y, dy) = (reflection(False, h, d),
                                reflection(True, h, d))
            tasks.append(_analyzer(
                "thue-morse", "pair_type1_verdict", (tm, x, y),
                {"horizon": h, "depth": d},
                lambda v, h=h, d=d, pts=[dx, dy]: O.check_two_sided(
                    v, pts, h, d)))
        (x, dx), (y, dy) = reflection(False, 64, d), reflection(True, 64, d)
        tasks.append(_analyzer(
            "thue-morse", "weak_rigidity_verdict", (tm, [x, y]), kw,
            lambda v, d=d, pts=[dx, dy]: O.check_weak_rigidity(v, pts, 64, d)))

    warmup = _analyzer("odometer", "ap_verdict", (od, od.point("zero")),
                       {"horizon": 64, "depth": 2},
                       lambda v: O.check_almost_periodic(v, ODO, 64, 2))
    return tasks, warmup


# ---------------------------------------------------------------------------
# word-geometry


def _reduced_word(rng: random.Random, length: int, rank: int = 2) -> tuple:
    word: list = []
    while len(word) < length:
        x = rng.choice([k for k in range(-rank, rank + 1) if k])
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def _sphere_point(rng: random.Random, norm: int, dim: int) -> tuple:
    """A seeded lattice point of the given L1 norm."""
    cuts = sorted(rng.randint(0, norm) for _ in range(dim - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
    return tuple(p * rng.choice((1, -1)) for p in parts)


def _sorted_elements(es) -> list:
    return sorted(list(e) if isinstance(e, tuple) else e for e in es)


def _cone_json(c) -> dict:
    return {"radius": c.radius, "elements": _sorted_elements(c.elements),
            "stabilized": c.stabilized,
            "stabilization_index": c.stabilization_index,
            "examined": c.examined, "tail_run": c.tail_run}


def _bfs_task(family: str, group, g, expected: int) -> Task:
    return Task(family,
                lambda: groups.word_length(group, g, method="bfs"),
                lambda n: n, lambda n: n == expected)


def word_geometry(rng: random.Random, systems: dict) -> tuple:
    Z, Z2 = groups.IntegerGroup(), groups.LatticeGroup(2)
    F2 = groups.FreeGroupVariant(2)
    CS = groups.CyclicSumGroup.symmetric(2, 5)
    od = systems["odometer"]
    tasks = []

    for _ in range(20):
        n = rng.choice((1, -1)) * rng.randint(30, 50)
        tasks.append(_bfs_task("Z", Z, n, abs(n)))
    for norm in range(10, 21):
        for _ in range(9):
            g = _sphere_point(rng, norm, 2)
            tasks.append(_bfs_task("Z2", Z2, g, norm))
    for length in (5, 6, 7):
        for _ in range(10):
            tasks.append(_bfs_task("F2", F2, _reduced_word(rng, length),
                                   length))
    for _ in range(20):
        # length 8 out of the maximum 10: two coordinates at distance 1
        g = [rng.choice((2, 3)) for _ in range(5)]
        for i in rng.sample(range(5), 2):
            g[i] = rng.choice((1, 4))
        g = tuple(g)
        tasks.append(_bfs_task("cyclic-sum", CS, g,
                               O.cyclic_sum_length(g, CS.moduli)))

    for step in (1, -1, 2, -2, 5, -5):
        for _ in range(5):
            r = rng.randint(1, 50)
            tasks.append(Task(
                "Z-cone",
                lambda s=step, r=r: groups.cone_approx(
                    Z, groups.affine_sequence(s), r),
                _cone_json, lambda p, s=step, r=r: O.check_cone(p, s, r)))
    for step in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -2)):
        r = rng.choice((3, 4))
        tasks.append(Task(
            "Z2-cone",
            lambda s=step, r=r: groups.cone_approx(
                Z2, groups.affine_sequence(s), r, max_index=r + 3),
            _cone_json, lambda p, s=step, r=r: O.check_cone(p, s, r)))

    for _ in range(10):
        m = rng.randint(3, 9)
        k = m // 2 - rng.randrange(2)
        tasks.append(Task(
            "Z-syndetic",
            lambda m=m, k=k: groups.is_syndetic_window(
                Z, lambda g: g % m == 0, k, 40),
            _to_json,
            lambda v, m=m, k=k: O.check_syndetic_multiples(v, m, k, 40)))
    for _ in range(10):
        m, p = rng.randint(4, 9), rng.randint(1, 3)
        tasks.append(Task(
            "Z-thick",
            lambda m=m, p=p: groups.is_thick_window(
                Z, lambda g: g % m != 0, p, 40),
            _to_json,
            lambda v, m=m, p=p: O.check_thick_non_multiples(v, m, p, 40)))
    for _ in range(4):
        m = rng.randint(2, 4)
        tasks.append(Task(
            "Z2-syndetic",
            lambda m=m: groups.is_syndetic_window(
                Z2, lambda g: (g[0] + g[1]) % m == 0, 1, 8),
            _to_json,
            lambda v, m=m: O.check_syndetic_multiples(v, m, 1, 8, dim=2)))

    for radius, count in ((6, 4), (8, 2)):
        for fn, is_sphere in (("ball", False), ("sphere", True)):
            for _ in range(count):
                tasks.append(Task(
                    "F2-" + fn,
                    lambda fn=fn, r=radius: getattr(groups, fn)(F2, r),
                    _sorted_elements,
                    lambda p, r=radius, s=is_sphere: O.check_free_words(
                        p, r, s)))

    for _ in range(8):
        fset = sorted(rng.sample(range(5), 3))
        tasks.append(Task(
            "layer-embedding",
            lambda f=fset: groups.layer_embedding_bound(Z, f, 12),
            _to_json,
            lambda v, f=fset: O.check_layer_embedding_z(v, f, 12, 8)))
    for _ in range(4):
        m = rng.randint(2, 6)
        tasks.append(Task(
            "generates-within",
            lambda m=m: subgroups.generates_within(
                Z, subgroups.IntegerSubgroup(m),
                groups.ElementSet(frozenset({m, -m})), 30),
            _to_json,
            lambda v, m=m: O.matches(v, "holds", {"reached": 2 * (30 // m)})))
    for _ in range(2):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        gens = groups.ElementSet(frozenset({(a, 0), (-a, 0), (0, b),
                                            (0, -b)}))
        tasks.append(Task(
            "generates-within",
            lambda a=a, b=b, gens=gens: subgroups.generates_within(
                Z2, subgroups.LatticeSubgroup(((a, 0), (0, b))), gens, 6),
            _to_json,
            lambda v, a=a, b=b: O.matches(
                v, "holds", {"reached": O.lattice_points_in_ball(6, (a, b))})))

    for h in (32, 48):
        for d in (2, 3):
            x = rng.choice([od.point("zero"), od.point("one"),
                            _odometer_digits(rng, od)])
            tasks.append(_analyzer(
                "cone-subnet", "type2_verdict", (od, x),
                {"horizon": h, "depth": d},
                lambda v, h=h, d=d: O.check_cone_subnet_odometer(v, h, d)))
        x = _odometer_digits(rng, od)
        tasks.append(_analyzer(
            "cone-subnet", "type2_verdict", (od, x),
            {"horizon": h, "depth": 2},
            lambda v, h=h: O.check_cone_subnet_odometer(v, h, 2)))

    warmup = _bfs_task("Z2", Z2, (7, -6), 13)
    return tasks, warmup


# ---------------------------------------------------------------------------
# battery


def run_cli(argv: list) -> tuple:
    """cli.main in-process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_json(out: tuple) -> dict:
    return {"exit": out[0], "stdout": out[1]}


def _cli_task(family: str, argv: list, oracle: Callable) -> Task:
    return Task(family, lambda: run_cli(argv), _cli_json, oracle)


def _analyze_oracle(check: Callable) -> Callable:
    def oracle(plain: dict) -> bool:
        return plain["exit"] == 0 and check(json.loads(plain["stdout"]))
    return oracle


def _analyze_templates(rng: random.Random) -> list:
    """(argv, verdict check) pairs for ``zerodim analyze --json``."""
    out = []
    ODO = ("odometer",)
    for h in (8, 16):
        for d in (2, 3):
            hd = ["--horizon", str(h), "--depth", str(d), "--json"]

            def odo(analyzer):
                pt = rng.choice(("zero", "one", "minus-one"))
                return ["analyze", "odometer", analyzer, "--point", pt] + hd

            out += [
                (odo("almost-periodic"),
                 lambda v, h=h, d=d: O.check_almost_periodic(v, ODO, h, d)),
                (odo("regular-return"),
                 lambda v, h=h, d=d: O.check_regular_return(v, ODO, h, d)),
                (odo("two-sided-recurrence"),
                 lambda v, h=h, d=d: O.check_two_sided(v, [ODO], h, d)),
                (odo("translate-cover"),
                 lambda v, d=d: O.check_translate_cover(v, 1 << d, 16)),
            ]
            pt = rng.choice(("zero", "one", "alternating"))
            desc = ("alternating",) if pt == "alternating" else ("constant",)
            out.append((["analyze", "full-shift", "two-sided-recurrence",
                         "--point", pt] + hd,
                        lambda v, h=h, d=d, desc=desc: O.check_two_sided(
                            v, [desc], h, d)))
            pt = rng.choice(("zero", "one"))
            out.append((["analyze", "full-shift", "almost-periodic",
                         "--point", pt] + hd,
                        lambda v, h=h, d=d: O.check_almost_periodic(
                            v, ("constant",), h, d)))
            # the named reflection points have radius 64 >= 1.5*16 + 3
            flipped = rng.random() < 0.5
            pt = "reflection-flipped" if flipped else "reflection"
            out.append((["analyze", "thue-morse", "almost-periodic",
                         "--point", pt] + hd,
                        lambda v, h=h, d=d, f=flipped: O.check_almost_periodic(
                            v, ("reflection", f), h, d)))
            out.append((["analyze", "thue-morse", "pair-recurrence",
                         "--point", "reflection", "--point",
                         "reflection-flipped"] + hd,
                        lambda v, h=h, d=d: O.check_two_sided(
                            v, [("reflection", False), ("reflection", True)],
                            h, d)))
            out.append((["analyze", "circle-stack", "equicontinuity"] + hd,
                        lambda v, h=h, d=d: O.check_equicontinuity(
                            v, "circle", h, d)))
    for system, pt, period in (("circle-stack", "level-1", 2),
                               ("circle-stack", "level-2", 3),
                               ("circle-stack", "limit", 1),
                               ("successor-map", "zero", 1),
                               ("successor-map", "unit", 3)):
        out.append((["analyze", system, "pointwise-period", "--point", pt,
                     "--json"],
                    lambda v, p=period: O.matches(v, "holds",
                                                   {"period": p})))
    for system in ("two-copy", "mcmahon"):
        for d in (2, 3):
            out.append((["analyze", system, "regional-proximal", "--depth",
                         str(d), "--json"],
                        lambda v, d=d: O.check_rp_certificate(v, d)))
    for system, x, y in (("two-copy", "o-plus", "o-minus"),
                         ("mcmahon", "base", "marked")):
        out.append((["analyze", system, "proximal-pair", "--point", x,
                     "--point", y, "--horizon", "2", "--depth", "2",
                     "--json"],
                    lambda v: O.matches(v, "fails", {"min_distance": "1/1"},
                                        exact=False)))
    return out


def _random_clopen_base(rng: random.Random, lo: int, width: int,
                        count: int) -> tuple:
    pats = set()
    while len(pats) < count:
        pats.add(tuple(rng.randrange(2) for _ in range(width)))
    return lo, pats


def _clopen_task(rng: random.Random) -> Task:
    """union/intersection/sym_diff whose refined window is WINDOW_CAP
    wide, plus one complement on an 11-wide window."""
    bases = {"A": _random_clopen_base(rng, -11, 20, 6),
             "B": _random_clopen_base(rng, -8, 21, 6),
             "E": _random_clopen_base(rng, -5, 11, 40)}
    # C on [-10, 10] extends half of A's and B's patterns, so that the
    # intersection and the symmetric difference are not trivial
    bit = lambda: rng.randrange(2)  # noqa: E731
    a_pats, b_pats = sorted(bases["A"][1]), sorted(bases["B"][1])
    bases["C"] = (-10, {p[1:] + (bit(), bit()) for p in a_pats[:3]}
                  | {(bit(), bit()) + p[:19] for p in b_pats[:3]})
    scheme = cantor.Scheme("two-sided")

    def run():
        a, b, c, e = (cantor.clopen(scheme, bases[k][0], sorted(bases[k][1]))
                      for k in "ABCE")
        u = cantor.union(a, b)
        i = cantor.intersection(u, c)
        return [u, i, cantor.sym_diff(i, a), cantor.complement(e)]

    return Task("clopen", run, lambda rs: [r.to_json() for r in rs],
                lambda p: O.check_clopen_chain(p, bases))


def _invariant_core_task(rng: random.Random) -> Task:
    width = rng.choice((2, 3))
    cells = [tuple((v >> i) & 1 for i in range(width))
             for v in range(1 << width)]
    pats = rng.sample(cells, rng.randint(1, len(cells) - 1))
    depth, horizon = rng.choice((3, 4, 5)), rng.randint(4, 12)

    def run():
        system = zd.get_system("odometer")
        target = cantor.clopen(system.scheme, 0, pats)
        return zd.invariant_core(system, target, depth=depth,
                                 horizon=horizon)

    return Task("invariant-core", run, _to_json,
                lambda p: O.check_invariant_core(p, pats, width, depth,
                                                 horizon))


def _upper_triangular(rng: random.Random, diagonal: tuple) -> tuple:
    diag = rng.sample(diagonal, 3)
    return tuple(tuple(0 if j < i else diag[i] if j == i
                       else rng.randrange(diag[j]) for j in range(3))
                 for i in range(3))


def _lattice_task(rng: random.Random) -> Task:
    a = _upper_triangular(rng, (1, 2, 3))
    b = _upper_triangular(rng, (1, 2, 2))
    return Task(
        "lattice",
        lambda: subgroups.intersect_subgroups(
            groups.LatticeGroup(3),
            [subgroups.LatticeSubgroup(a), subgroups.LatticeSubgroup(b)]),
        _to_json, lambda p: O.check_lattice_intersection(p, a, b))


def _survey_task(builder: str, expected: int) -> Task:
    def run():
        group = getattr(subgroups, builder)(4)
        return [(h, subgroups.normal_core(group, h))
                for h in subgroups.all_subgroups(group)]

    return Task("subgroup-survey", run,
                lambda pairs: [[sorted(h.members), sorted(n.members)]
                               for h, n in pairs],
                lambda p: O.check_subgroups_and_cores(p, 4, expected))


def _one_shot_tasks(rng: random.Random) -> list:
    """Cayley searches on group instances built inside the task."""
    tasks = []
    for _ in range(6):
        r = rng.choice((3, 4))
        tasks.append(Task(
            "fresh-ball",
            lambda r=r: groups.ball(groups.FreeGroupVariant(2), r),
            _sorted_elements,
            lambda p, r=r: O.check_free_words(p, r, False)))
    for dim, lo, hi in ((2, 6, 9), (3, 3, 5)):
        for _ in range(6):
            norm = rng.randint(lo, hi)
            g = _sphere_point(rng, norm, dim)
            tasks.append(Task(
                "fresh-word-length",
                lambda g=g, dim=dim: groups.word_length(
                    groups.LatticeGroup(dim), g, method="bfs"),
                lambda n: n, lambda n, norm=norm: n == norm))
    for _ in range(6):
        g = tuple(rng.randrange(7) for _ in range(3))
        expected = O.cyclic_sum_length(g, (7, 7, 7))
        tasks.append(Task(
            "fresh-word-length",
            lambda g=g: groups.word_length(
                groups.CyclicSumGroup.symmetric(1, 7), g, method="bfs"),
            lambda n: n, lambda n, e=expected: n == e))
    return tasks


def battery(rng: random.Random, systems: dict) -> tuple:
    default = str(CONFIGS / "default.json")
    negative = str(CONFIGS / "negative-control.json")
    entries = json.loads(Path(default).read_text())["checks"]
    tasks = []
    for _ in range(2):
        tasks.append(_cli_task(
            "cli-verify", ["verify", "--json", "--config", default],
            lambda p, n=len(entries): O.check_verify(p, ["CONSISTENT"] * n)))
        tasks.append(_cli_task(
            "cli-verify", ["verify", "--json", "--config", negative],
            lambda p: O.check_verify(
                p, ["VIOLATION", "VIOLATION", "CONSISTENT"])))
        seed = rng.randrange(1000)
        tasks.append(_cli_task(
            "cli-gallery", ["gallery", "--json", "--seed", str(seed)],
            lambda p, s=seed: O.check_gallery(p, s, GALLERY_SYSTEMS)))
    templates = _analyze_templates(rng)
    for i in range(110):
        argv, check = templates[i % len(templates)]
        tasks.append(_cli_task("cli-analyze", argv, _analyze_oracle(check)))
    for entry in entries * 2:
        tasks.append(Task(
            "harness-check", lambda e=entry: harness.run_check(e), _to_json,
            lambda p: p["outcome"] == "CONSISTENT"))
    tasks += [_lattice_task(rng) for _ in range(30)]
    tasks += [_survey_task("symmetric_group", 30) for _ in range(2)]
    tasks += [_survey_task("dihedral_group", 10) for _ in range(4)]
    tasks += [_clopen_task(rng) for _ in range(30)]
    tasks += [_invariant_core_task(rng) for _ in range(16)]
    tasks += _one_shot_tasks(rng)
    # the first lattice intersection imports sympy; let set-up pay it
    return tasks, _lattice_task(rng)


WORKLOADS = {
    "recurrence-scan": recurrence_scan,
    "word-geometry": word_geometry,
    "battery": battery,
}


def generate(name: str, seed: int, systems: dict) -> tuple:
    """(tasks in seeded order, warm-up task) for one workload."""
    rng = random.Random("%s:%d" % (name, seed))
    tasks, warmup = WORKLOADS[name](rng, systems)
    rng.shuffle(tasks)
    return tasks, warmup
