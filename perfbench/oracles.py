"""Independent oracles for the benchmark's task outputs.

Every oracle takes the task's inputs and its output in plain JSON form
and returns True when the output is right.  None of them re-runs the
search under test: return times come from closed forms (odometer
carries, the Thue-Morse digit-sum parity, the shape of a single
marker), word lengths from norms, cones from half-space inequalities,
lattice and subgroup results from brute force on small boxes and
permutations parsed from their names, and clopen results from the
membership of enumerated points.  Only the bookkeeping that turns a
return-time set into a certificate (longest gap, least modulus,
first return per direction) is restated here.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import lcm

INPUT_DEPTH_MAX = 64  # equicontinuity_verdict's default cap


# ---------------------------------------------------------------------------
# return times from closed forms


def thue_morse(k: int) -> int:
    """The k-th Thue-Morse symbol: parity of the binary digit sum."""
    return bin(k).count("1") & 1


def reflection_symbol(c: int, flipped: bool) -> int:
    """Symbol of the mirror-extended Thue-Morse point at coordinate c."""
    if c >= 0:
        return 1 - thue_morse(c) if flipped else thue_morse(c)
    return thue_morse(-c - 1)


def return_predicate(point: tuple, depth: int):
    """n -> does shifting/adding n return the point to its depth cell.

    ``point`` describes the point, not the program's object:
    ("odometer",) any binary odometer point, ("constant",) a constant
    two-sided point, ("alternating",), ("single", k) the marker at k,
    ("reflection", flipped) the Thue-Morse mirror point."""
    kind = point[0]
    if kind == "odometer":
        return lambda n: n % (1 << depth) == 0
    if kind == "constant":
        return lambda n: True
    if kind == "alternating":
        return lambda n: n % 2 == 0
    window = range(1 - depth, depth)
    if kind == "single":
        k = point[1]
        return lambda n: all((m + n == k) == (m == k) for m in window)
    if kind == "reflection":
        flipped = point[1]
        return lambda n: all(reflection_symbol(m + n, flipped)
                             == reflection_symbol(m, flipped)
                             for m in window)
    raise ValueError("unknown point description %r" % (point,))


def matches(verdict: dict, status: str, certificate: dict,
            exact: bool = True) -> bool:
    """The verdict has this status and this certificate (with
    ``exact=False``: at least these certificate entries)."""
    cert = verdict.get("certificate", {})
    if exact and set(cert) != set(certificate):
        return False
    return verdict.get("status") == status and all(
        cert.get(k) == v for k, v in certificate.items())


def check_almost_periodic(verdict: dict, point: tuple, horizon: int,
                          depth: int) -> bool:
    ret = return_predicate(point, depth)
    span = horizon + horizon // 2
    times = [n for n in range(-span, span + 1) if n and ret(n)]
    tset = set(times) | {0}
    longest = run = 0
    for n in range(-horizon, horizon + 1):
        run = 0 if n in tset else run + 1
        longest = max(longest, run)
    kmax = horizon // 2
    if longest + 1 <= kmax:
        full = sorted(tset)
        gaps = [b - a for a, b in zip(full, full[1:])]
        return matches(verdict, "holds", {
            "syndetic_bound": longest + 1,
            "max_gap_in_span": max(gaps) if gaps else None,
            "return_count": len(times),
            "first_returns": times[:8]})
    start = next(g for g in range(-horizon, horizon - kmax + 2)
                 if not tset & set(range(g, g + kmax)))
    return matches(verdict, "fails", {
        "empty_window_start": start, "empty_window_length": kmax,
        "checked_span": span, "returns_in_span": times})


def check_regular_return(verdict: dict, point: tuple, horizon: int,
                         depth: int) -> bool:
    ret = return_predicate(point, depth)
    obstructions = []
    for kappa in range(1, horizon + 1):
        missing = next((kappa * j * sgn
                        for j in range(1, horizon // kappa + 1)
                        for sgn in (1, -1) if not ret(kappa * j * sgn)),
                       None)
        if missing is None:
            return matches(verdict, "holds", {
                "modulus": kappa,
                "multiples_verified": 2 * (horizon // kappa)})
        obstructions.append([kappa, missing])
    return matches(verdict, "fails", {"obstructions": obstructions[:12],
                                       "moduli_checked": horizon})


def _first_returns(rets, horizon: int):
    forward = next((n for n in range(1, horizon + 1)
                    if all(r(n) for r in rets)), None)
    backward = next((n for n in range(-1, -horizon - 1, -1)
                     if all(r(n) for r in rets)), None)
    return forward, backward


def check_two_sided(verdict: dict, points: list, horizon: int,
                    depth: int) -> bool:
    """two-sided-recurrence (one point) and pair-recurrence (two)."""
    rets = [return_predicate(p, depth) for p in points]
    forward, backward = _first_returns(rets, horizon)
    if forward is not None and backward is not None:
        return matches(verdict, "holds", {"forward": forward,
                                           "backward": backward})
    missing = [side for side, w in (("forward", forward),
                                    ("backward", backward)) if w is None]
    return matches(verdict, "fails", {"missing_directions": missing,
                                       "forward": forward,
                                       "backward": backward})


def check_weak_rigidity(verdict: dict, points: list, horizon: int,
                        depth: int) -> bool:
    rets = [return_predicate(p, depth) for p in points]
    for k in range(1, horizon + 1):
        for n in (k, -k):
            if all(r(n) for r in rets):
                return matches(verdict, "holds", {"shift": n,
                                                   "points": len(points)})
    return matches(verdict, "fails", {"checked_through": horizon,
                                       "points": len(points)})


def check_translate_cover(verdict: dict, period: int,
                          cover_cap: int) -> bool:
    """Return times that are exactly the multiples of ``period`` are
    covered by the translates 0 .. period-1, one new translate each."""
    if period - 1 > cover_cap:
        return verdict.get("status") == "fails"
    return matches(verdict, "holds", {"cover": list(range(period)),
                                       "cover_size": period})


def input_depth(kind: str, n: int, depth: int) -> int:
    """Continuity modulus of the bundled actions, from their definitions."""
    if kind == "odometer":
        return depth
    if kind == "shift":
        return depth + abs(n)
    if kind == "circle":
        return depth if n == 0 else depth + 1 + abs(n).bit_length()
    raise ValueError(kind)


def check_equicontinuity(verdict: dict, kind: str, horizon: int,
                         depth: int) -> bool:
    table, current = [], depth
    for h in range(1, horizon + 1):
        current = max(current, input_depth(kind, h, depth),
                      input_depth(kind, -h, depth))
        if current > INPUT_DEPTH_MAX:
            return matches(verdict, "fails", {
                "exceeded_cap_at_radius": h, "value": current,
                "input_depth_max": INPUT_DEPTH_MAX, "table": table})
        table.append(current)
    mid = (horizon + 1) // 2
    if table[-1] == table[mid - 1]:
        return matches(verdict, "holds", {"table": table, "midpoint": mid,
                                          "modulus": table[-1]})
    return matches(verdict, "fails", {
        "table": table, "midpoint": mid,
        "growth": [[mid, table[mid - 1]], [horizon, table[-1]]]})


def check_cone_subnet_odometer(verdict: dict, horizon: int,
                               depth: int) -> bool:
    """On Z the cone layer of g > 0 is [1, 2g-1]; the least odometer
    return in it is 2^depth whenever 2g-1 reaches it."""
    tail = range(horizon // 2 + 1, horizon + 1)
    gap = 1 << depth
    if any(2 * g - 1 < gap for g in tail):
        return verdict.get("status") == "fails"
    status = "holds" if gap <= horizon // 2 else "fails"
    return matches(verdict, status, {
        "subnet_bound": gap, "allowed": horizon // 2,
        "tail_minima": [[str(g), gap] for g in list(tail)[:8]]})


# ---------------------------------------------------------------------------
# word metric, balls, cones


def cyclic_sum_length(g, moduli) -> int:
    """Word length in a sum of cyclic groups: the cyclic distances."""
    return sum(min(x, m - x) for x, m in zip(g, moduli))


def free_ball_size(radius: int, rank: int = 2) -> int:
    """Non-identity reduced words of length 1..radius."""
    return sum(2 * rank * (2 * rank - 1) ** (k - 1)
               for k in range(1, radius + 1))


def check_free_words(words: list, radius: int, sphere: bool,
                     rank: int = 2) -> bool:
    expected = (2 * rank * (2 * rank - 1) ** (radius - 1) if sphere
                else free_ball_size(radius, rank))
    if len(words) != expected or len({tuple(w) for w in words}) != expected:
        return False
    for w in words:
        if sphere and len(w) != radius or not 1 <= len(w) <= radius:
            return False
        if any(x == 0 or abs(x) > rank for x in w):
            return False
        if any(a == -b for a, b in zip(w, w[1:])):
            return False
    return True


def cone_limit(step: tuple, radius: int) -> set:
    """Limit of the cone layers along n*step in Z^d, cut to the radius
    ball: for large n, |x - n*step| <= |n*step| - 1 reads
    sum(sign(s_i) x_i over s_i != 0) - sum(|x_i| over s_i == 0) >= 1."""
    dim = len(step)
    out = set()
    for x in itertools.product(range(-radius, radius + 1), repeat=dim):
        if not 0 < sum(abs(c) for c in x) <= radius:
            continue
        lhs = sum((1 if s > 0 else -1) * c for c, s in zip(x, step) if s)
        lhs -= sum(abs(c) for c, s in zip(x, step) if not s)
        if lhs >= 1:
            out.add(x if dim > 1 else x[0])
    return out


def check_cone(plain: dict, step, radius: int) -> bool:
    steps = step if isinstance(step, tuple) else (step,)
    expected = cone_limit(steps, radius)
    got = {tuple(e) if isinstance(e, list) else e for e in plain["elements"]}
    return plain["stabilized"] is True and got == expected


def check_syndetic_multiples(verdict: dict, modulus: int, k_radius: int,
                             window: int, dim: int = 1) -> bool:
    """Multiples of m (of the coordinate sum in Z^2) are k-syndetic
    exactly when k >= m // 2."""
    n = window - k_radius
    if k_radius >= modulus // 2:
        covered = 2 * n + 1 if dim == 1 else 2 * n * n + 2 * n + 1
        cert = {"covered": covered}
        if dim == 1:
            cert["max_gap"] = modulus
        return matches(verdict, "holds", cert)
    if dim == 1:
        return matches(verdict, "fails", {"uncovered": str(k_radius + 1)})
    return verdict.get("status") == "fails"


def check_thick_non_multiples(verdict: dict, modulus: int,
                              probe_radius: int, window: int) -> bool:
    """2p+1 consecutive non-multiples of m exist iff 2p+1 <= m-1; the
    first witness in length order is then t = p+1."""
    if 2 * probe_radius + 1 <= modulus - 1:
        return matches(verdict, "holds", {
            "witness": str(probe_radius + 1),
            "probe_size": 2 * probe_radius + 1})
    candidates = sum(1 for t in range(-window, window + 1)
                     if t % modulus)
    return matches(verdict, "fails", {
        "unplaceable_probe_radius": probe_radius,
        "candidates_checked": candidates})


def check_layer_embedding_z(verdict: dict, finite_set: list, g_bound: int,
                            n_max: int) -> bool:
    """On Z the cone layer of g is the interval of radius |g|-1 around
    g; a translate t = +-n works when it moves the set inside it."""
    def fits(g, t):
        r = abs(g) - 1
        return all(g - r <= f + t <= g + r for f in finite_set)

    for n in range(1, n_max + 1):
        pool = [g for g in range(-g_bound, g_bound + 1)
                if n <= abs(g) <= g_bound]
        if pool and all(fits(g, n) or fits(g, -n) for g in pool):
            return matches(verdict, "holds", {"bound": n,
                                               "examined": len(pool)})
    return matches(verdict, "fails", {"no_bound_up_to": n_max})


def lattice_points_in_ball(radius: int, divisors: tuple) -> int:
    """Nonzero points of the L1 ball whose coordinates are divisible
    by the given divisors."""
    return sum(1 for x in itertools.product(range(-radius, radius + 1),
                                            repeat=len(divisors))
               if 0 < sum(abs(c) for c in x) <= radius
               and all(c % d == 0 for c, d in zip(x, divisors)))


# ---------------------------------------------------------------------------
# subgroups


def _det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def in_row_lattice(basis, x) -> bool:
    """x in the integer row span of a 3x3 basis, by Cramer's rule."""
    det = _det3(basis)
    for j in range(3):
        m = [list(row) for row in basis]
        # solve c * basis = x: replace row j of basis by x
        m[j] = list(x)
        if _det3(m) % det:
            return False
    return True


def check_lattice_intersection(plain: dict, a, b) -> bool:
    """The result basis lies in both inputs, and its index equals the
    brute-force index of the intersection on the box [0, D)^3, where D
    kills both quotients."""
    basis = plain["basis"]
    det = abs(_det3(basis))
    if det == 0 or not all(in_row_lattice(a, r) and in_row_lattice(b, r)
                           for r in basis):
        return False
    side = lcm(abs(_det3(a)), abs(_det3(b)))
    count = sum(1 for x in itertools.product(range(side), repeat=3)
                if in_row_lattice(a, x) and in_row_lattice(b, x))
    return side ** 3 == det * count


def parse_cycles(name: str, n: int) -> tuple:
    """Permutation of 0..n-1 from the 1-based cycle notation used for
    the finite group element names ("e" is the identity)."""
    perm = list(range(n))
    for cyc in name.replace("e", "").strip("()").split(")("):
        if not cyc:
            continue
        pts = [int(c) - 1 for c in cyc]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def check_subgroups_and_cores(plain: list, degree: int,
                              expected_count: int) -> bool:
    """Every listed subgroup is closed, they are pairwise distinct,
    there are as many as the group has, and each listed core is
    {a in H : t a t^-1 in H for every t}."""
    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    def inverse(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    seen = set()
    for members, _ in plain:
        h = frozenset(parse_cycles(m, degree) for m in members)
        if h in seen or any(compose(a, b) not in h for a in h for b in h):
            return False
        seen.add(h)
    if len(seen) != expected_count:
        return False
    group = max(seen, key=len)
    for members, core in plain:
        h = frozenset(parse_cycles(m, degree) for m in members)
        want = {a for a in h
                if all(compose(compose(t, a), inverse(t)) in h
                       for t in group)}
        if {parse_cycles(m, degree) for m in core} != want:
            return False
    return True


# ---------------------------------------------------------------------------
# clopen algebra


def clopen_member(plain: dict, bits) -> bool:
    """Membership of the point ``bits`` (a coordinate -> symbol dict)
    in a clopen set given as its JSON form."""
    lo, patterns = plain["lo"], plain["patterns"]
    if not patterns:
        return False
    width = len(patterns[0])
    probe = [bits[c] for c in range(lo, lo + width)]
    return probe in patterns


CLOPEN_COORDS = range(-14, 15)


def _cell_points(lo: int, hi: int, fixed: list) -> list:
    """Binary points that are zero off [lo, hi], one for every filling
    of [lo, hi] that agrees with the given (window lo, pattern) pairs."""
    out = []
    for lo_f, pattern in fixed:
        free = [c for c in range(lo, hi + 1)
                if not lo_f <= c < lo_f + len(pattern)]
        for fill in itertools.product((0, 1), repeat=len(free)):
            bits = dict.fromkeys(CLOPEN_COORDS, 0)
            bits.update(zip(range(lo_f, lo_f + len(pattern)), pattern))
            bits.update(zip(free, fill))
            out.append(bits)
    return out


def check_clopen_chain(results: list, bases: dict) -> bool:
    """``results`` holds the JSON forms of U = union(A, B),
    I = intersection(U, C), S = sym_diff(I, A) and K = complement(E).

    The enumerated points are every cell of the refined window that
    lies in A, B or C (a superset of U, I and S), every cell of E's
    window (for K), and one point per pattern each result lists; at
    each of them the results must follow the Boolean formulas."""
    lo = min(b[0] for b in bases.values())
    hi = max(b[0] + len(next(iter(b[1]))) - 1 for b in bases.values())
    points = _cell_points(lo, hi, [(bases[k][0], p) for k in "ABC"
                                   for p in bases[k][1]])
    e_lo, e_pats = bases["E"]
    width = len(next(iter(e_pats)))
    points += _cell_points(e_lo, e_lo + width - 1, [(e_lo, ())])
    points += _cell_points(0, -1, [(r["lo"], p) for r in results
                                   for p in r["patterns"]])
    for bits in points:
        a, b, c, e = (pattern_member(bases[k], bits) for k in "ABCE")
        u = a or b
        i = u and c
        expected = (u, i, i != a, not e)
        if tuple(clopen_member(r, bits) for r in results) != expected:
            return False
    return True


def pattern_member(base: tuple, bits) -> bool:
    lo, patterns = base
    width = len(next(iter(patterns)))
    return tuple(bits[c] for c in range(lo, lo + width)) in patterns


def check_invariant_core(plain: dict, target_patterns: list, width: int,
                         depth: int, horizon: int) -> bool:
    """Odometer cells: the cell of digits p (zero tail) is the integer
    v = sum p_i 2^i, and adding g reads the target window off
    (v + g) mod 2^width."""
    targets = {tuple(p) for p in target_patterns}
    reach = [0] + [g for k in range(1, horizon + 1) for g in (k, -k)]
    inner, excluded = [], {}
    for cell in itertools.product((0, 1), repeat=depth):
        v = sum(d << i for i, d in enumerate(cell))
        for g in reach:
            y = (v + g) % (1 << width)
            if tuple((y >> i) & 1 for i in range(width)) not in targets:
                excluded["".join(map(str, cell))] = str(g)
                break
        else:
            inner.append(list(cell))
    return (plain["inner"] == sorted(inner) and plain["outer"] == sorted(inner)
            and plain["excluded"] == excluded and plain["unknown"] == {})


# ---------------------------------------------------------------------------
# command line outputs


def check_verify(plain: dict, expected_outcomes: list) -> bool:
    run = json.loads(plain["stdout"])
    exit_code = 3 if "VIOLATION" in expected_outcomes else 0
    return (plain["exit"] == exit_code
            and [r["outcome"] for r in run["reports"]] == expected_outcomes)


def check_gallery(plain: dict, seed: int, systems: list) -> bool:
    out = json.loads(plain["stdout"])
    return (plain["exit"] == 0 and out["seed"] == seed
            and [s["system"] for s in out["sections"]] == systems)


def check_rp_certificate(verdict: dict, depth: int) -> bool:
    """Replay a regional-proximal certificate: each listed sequence is
    nonincreasing and ends at or below 2^-depth."""
    if verdict.get("status") != "holds":
        return False
    cert = verdict["certificate"]
    for key in ("approach_x", "approach_y", "pushed_together"):
        seq = [Fraction(s) for s in cert[key]]
        if any(b > a for a, b in zip(seq, seq[1:])):
            return False
        if seq[-1] > Fraction(1, 2 ** depth):
            return False
    return True
