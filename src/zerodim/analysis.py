"""Finite-horizon analyzers with three-valued verdicts.

Each analyzer probes one dynamical property of a system over an
explicit finite search space (a horizon radius in the acting group and
a resolution depth in the phase space) and returns HOLDS, FAILS, or
INCONCLUSIVE together with a replayable certificate.  HOLDS and FAILS
always refer to the bounded claim fixed by the stated parameters; they
are exact at that scope, never extrapolations.  INCONCLUSIVE is
reserved for probes that could not even evaluate the bounded claim
(no candidates, nothing established either way).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .cantor import (ClopenSet, Point, canonical_point, depth_cylinder,
                     from_cylinder, read_symbols)
from .errors import DomainError, PreconditionError, ResourceCapError
from .flows import FlowSystem
from .groups import _check_int, power_set
from .verdict import Verdict, fails, holds, inconclusive

CELL_CAP = 8192
PUMP_PERIOD_MAX = 4   # longest word uniform-recurrence pumps for a refutation


# ---------------------------------------------------------------------------
# shared plumbing


def _require_cells(system: FlowSystem) -> None:
    if system.kind != "cylinder-z" or system.scheme is None:
        raise DomainError("analyzer needs a symbol-space system with integer "
                          "action, got kind %r" % system.kind)


def _check_probe(horizon: int, depth: int) -> None:
    _check_int(horizon, "horizon", 1)
    _check_int(depth, "depth", 1)


def _first_least(system: FlowSystem, points: tuple, horizon: int,
                 key: Callable, floor) -> tuple:
    """``(least, r, g, images)``: ``least`` is the least ``key`` of the
    images of the points under the elements of word length <= horizon,
    or the first key <= ``floor`` met; g is the first element, in
    breadth-first order, whose images have a key <= max(least, floor),
    ``images`` are its images and r = |g|.

    Breadth-first order starts at the identity and lists the successors
    s*a of each element in turn, with s running over the non-identity
    generators in ``sort_key`` order; on Z it is ``sort_key`` order.
    The orbit-layer search (``FlowSystem.orbit_layers``) yields each new
    image with the first element in that order that reaches it, at its
    word length, so the first image it meets with the best key names
    the witness: no ball is built and no Cayley layer is scanned.  It
    stops at the first key <= floor."""
    best = None
    for r, images, g in system.orbit_layers(points, horizon):
        k = key(images)
        if best is None or k < best[0]:
            best = k, r, g, images
            if k <= floor:
                break
    return best


def _first_hit(system: FlowSystem, points: tuple, horizon: int,
               test: Callable) -> Optional[tuple]:
    """``(r, g)`` for the first g, in breadth-first order (see
    ``_first_least``) with |g| <= horizon, whose images of the points
    pass ``test``, and r = |g|; None if there is none.  An orbit that
    closes short of the horizon settles a miss at every horizon."""
    missed, r, g, _ = _first_least(system, points, horizon,
                                   lambda im: not test(im), False)
    return None if missed else (r, g)


def depth_ball(x: Point, depth: int) -> ClopenSet:
    """The clopen 2^-depth ball around a symbol-space point."""
    return from_cylinder(depth_cylinder(x, depth))


def return_times(system: FlowSystem, x, depth: int, lo: int,
                 hi: int) -> tuple:
    """Nonzero shifts n in [lo, hi] whose action returns x into its own
    depth cell."""
    return tuple(n for n in system.returns(x, depth, range(lo, hi + 1)) if n)


def _params(system: FlowSystem, **kw) -> dict:
    base = {"system": system.system_id}
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# recurrence analyzers (integer actions)


def ap_verdict(system: FlowSystem, x, *, horizon: int, depth: int) -> Verdict:
    """Syndetic return times: every length-(horizon//2) window of
    shifts near the origin must contain a depth-cell return."""
    _check_probe(horizon, depth)
    if horizon < 2:
        raise PreconditionError("horizon must be >= 2")
    name = "almost-periodic"
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth)
    span = horizon + horizon // 2
    times = return_times(system, x, depth, -span, span)
    full = sorted(set(times) | {0})
    kmax = horizon // 2
    best, gap_start = _syndetic_search(full, horizon, kmax)
    if best is None:
        return fails(name, params, {
            "empty_window_start": gap_start,
            "empty_window_length": kmax,
            "checked_span": span,
            "returns_in_span": list(times),
        })
    gaps = [b - a for a, b in zip(full, full[1:])]
    return holds(name, params, {
        "syndetic_bound": best,
        "max_gap_in_span": max(gaps) if gaps else None,
        "return_count": len(times),
        "first_returns": list(times[:8]),
    })


def _syndetic_search(full: list, horizon: int, kmax: int) -> tuple:
    """``(bound, None)`` with the least k <= kmax such that every
    length-k window of shifts inside [-horizon, horizon] holds a time
    of the sorted list ``full``, or ``(None, start)`` with the first
    window of length kmax that holds none.

    A length-k window misses every time iff it lies in a run of
    non-times of length >= k, so the bound is one more than the
    longest such run, and the first empty window starts the first run
    that reaches kmax."""
    inside = [t for t in full if -horizon <= t <= horizon]
    edges = [-horizon - 1] + inside + [horizon + 1]
    runs = [(b - a - 1, a + 1) for a, b in zip(edges, edges[1:])]
    longest = max(length for length, _ in runs)
    if longest < kmax:
        return longest + 1, None
    return None, next(start for length, start in runs if length >= kmax)


def regular_ap_verdict(system: FlowSystem, x, *, horizon: int,
                       depth: int) -> Verdict:
    """Return times must contain every multiple of a single modulus
    within the horizon.

    Only the multiples of each candidate modulus are read, through one
    ``return_test`` over [-horizon, horizon], in the order the first
    missing multiple is sought; no return set is built.  So a system
    that acts per shift acts only at the shifts asked, each once, and
    one that permutes its depth cells walks its cell's cycle once: each
    modulus below the cycle length misses at its first multiple."""
    _check_probe(horizon, depth)
    name = "regular-return"
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth)
    is_return = system.return_test(x, depth, range(-horizon, horizon + 1))
    obstructions = []
    for kappa in range(1, horizon + 1):
        missing = next((kappa * j * sgn
                        for j in range(1, horizon // kappa + 1)
                        for sgn in (1, -1)
                        if not is_return(kappa * j * sgn)), None)
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


def pointwise_period_verdict(system: FlowSystem, x, *,
                             period_max: int) -> Verdict:
    """Least exact period of the point, if one exists within the cap."""
    system.require_integer_action()
    _check_int(period_max, "period cap", 1)
    name = "pointwise-period"
    params = _params(system, point=system.format_point(x),
                     period_max=period_max)
    for p in range(1, period_max + 1):
        if system.equal(system.act(p, x), x):
            return holds(name, params, {"period": p})
    return inconclusive(name, params, {"tested_through": period_max})


def type1_verdict(system: FlowSystem, x, *, horizon: int,
                  depth: int) -> Verdict:
    """A depth-cell return in each direction within the horizon."""
    _check_probe(horizon, depth)
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth)
    return _two_sided("two-sided-recurrence", params, system, (x,), horizon,
                      depth)


def _first_common(system: FlowSystem, points: Sequence, depth: int,
                  ns: range) -> Optional[int]:
    """The first shift of ``ns`` that returns every point into its own
    depth cell, or None.  The first point's returns are streamed; each
    other point is asked only at those shifts, in order, and the
    question stops at the first one that does not return.  With one
    point this is ``next(system.returns(x, depth, ns), None)``."""
    lead, rest = points[0], points[1:]
    for n in system.returns(lead, depth, ns):
        if all(list(system.returns(p, depth, range(n, n + 1))) == [n]
               for p in rest):
            return n
    return None


def _two_sided(name: str, params: dict, system: FlowSystem, points: Sequence,
               horizon: int, depth: int) -> Verdict:
    """HOLDS with the first common return of the points in each
    direction within the horizon; FAILS naming the directions with
    none."""
    forward = _first_common(system, points, depth, range(1, horizon + 1))
    backward = _first_common(system, points, depth,
                             range(-1, -horizon - 1, -1))
    if forward is not None and backward is not None:
        return holds(name, params, {"forward": forward, "backward": backward})
    missing = [side for side, w in (("forward", forward),
                                    ("backward", backward)) if w is None]
    return fails(name, params, {
        "missing_directions": missing,
        "forward": forward,
        "backward": backward,
    })


def pair_type1_verdict(system: FlowSystem, x, y, *, horizon: int,
                       depth: int) -> Verdict:
    """Simultaneous depth-cell returns of two points under the same
    shifts, in each direction."""
    _check_probe(horizon, depth)
    params = _params(system, point_x=system.format_point(x),
                     point_y=system.format_point(y), horizon=horizon,
                     depth=depth)
    return _two_sided("pair-recurrence", params, system, (x, y), horizon,
                      depth)


def type2_verdict(system: FlowSystem, x, *, horizon: int,
                  depth: int) -> Verdict:
    """Returns found inside reach cones: along the schedule 1..horizon,
    the least return length within each cone must stay bounded on the
    tail.

    On Z the cone layer of g >= 1 is the interval [1, 2g-1], and a
    member's word length is itself, so the least return in g's cone is
    the least positive return r1 when r1 <= 2g-1 and there is none
    otherwise.  One ``returns`` query over 1..2*horizon-1 gives r1, and
    the tail g = horizon//2 + 1 .. horizon is read off it; no cone is
    built or searched, and no cap is met."""
    _check_probe(horizon, depth)
    system.require_integer_action()
    name = "cone-subnet-recurrence"
    group = system.group
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth, schedule_length=horizon)
    r1 = next(system.returns(x, depth, range(1, 2 * horizon)), None)
    tail = range(horizon // 2 + 1, horizon + 1)
    # the cones grow with g, so the first tail cone misses r1 if any does
    if r1 is None or r1 > 2 * tail[0] - 1:
        return fails(name, params, {
            "no_return_in_cone_of": group.format_element(tail[0]),
            "tail_length": len(tail),
        })
    cert = {
        "subnet_bound": r1,
        "allowed": horizon // 2,
        "tail_minima": [[group.format_element(g), r1] for g in tail[:8]],
    }
    if r1 <= horizon // 2:
        return holds(name, params, cert)
    return fails(name, params, cert)


def weak_rigidity_verdict(system: FlowSystem, points: Sequence, *,
                          horizon: int, depth: int) -> Verdict:
    """One shift returning every listed point to its own depth cell."""
    _check_probe(horizon, depth)
    if not points:
        raise PreconditionError("need at least one point")
    name = "weak-rigidity"
    params = _params(system, points=[system.format_point(p) for p in points],
                     horizon=horizon, depth=depth)
    # the least |n| wins, and n before -n
    forward = _first_common(system, points, depth, range(1, horizon + 1))
    reach = horizon if forward is None else forward - 1
    backward = _first_common(system, points, depth, range(-1, -reach - 1, -1))
    n = forward if backward is None else backward
    if n is not None:
        return holds(name, params, {"shift": n, "points": len(points)})
    return fails(name, params, {"checked_through": horizon,
                                "points": len(points)})


# ---------------------------------------------------------------------------
# neighborhoods, escape, and invariant cores


def escape_length(system: FlowSystem, x, neighborhood: Callable | ClopenSet,
                  *, horizon: int) -> Optional[tuple]:
    """Least word length of a group element moving x out of the
    neighborhood, with the first such element in breadth-first order;
    None if none exists within the horizon.  The orbit of x is
    searched, not the ball (see ``_first_least``): the search first
    meets the escaping image at the layer of its least word length."""
    member = (neighborhood.member if isinstance(neighborhood, ClopenSet)
              else neighborhood)
    return _first_hit(system, (x,), horizon, lambda im: not member(im[0]))


def confinement_verdict(system: FlowSystem, x,
                        neighborhood: Callable | ClopenSet, *,
                        horizon: int) -> Verdict:
    """Whether the orbit through the horizon ball stays inside the
    neighborhood."""
    _check_int(horizon, "horizon", 1)
    name = "orbit-confinement"
    params = _params(system, point=system.format_point(x), horizon=horizon)
    hit = escape_length(system, x, neighborhood, horizon=horizon)
    if hit is None:
        checked = len(power_set(system.group, horizon))
        return holds(name, params, {"elements_checked": checked})
    length, g = hit
    return fails(name, params, {
        "escape_length": length,
        "escape_element": system.group.format_element(g),
    })


@dataclass(frozen=True)
class InvariantCoreApprox:
    """Two-sided approximation of the points whose horizon orbit stays
    in a clopen set, resolved at cylinder-cell granularity.

    ``inner`` holds cells where every element the depth resolves,
    searched through ``reach``, provably maps the cell into the set;
    ``outer`` holds cells never provably mapped out.  Cells with
    undetermined elements are counted in ``unknown`` and stay in the
    outer approximation only.
    """

    depth: int
    horizon: int
    window: tuple
    inner: frozenset
    outer: frozenset
    excluded: Mapping
    unknown: Mapping

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "horizon": self.horizon,
            "window": list(self.window),
            "inner": sorted(list(p) for p in self.inner),
            "outer": sorted(list(p) for p in self.outer),
            "excluded": {"".join(map(str, k)): v
                         for k, v in sorted(self.excluded.items())},
            "unknown": {"".join(map(str, k)): v
                        for k, v in sorted(self.unknown.items())},
        }


def _cells(system: FlowSystem, depth: int) -> list:
    scheme = system.scheme
    lo, hi = scheme.depth_window(depth)
    sizes = [scheme.size(c) for c in range(lo, hi + 1)]
    total = 1
    for s in sizes:
        total *= s
    if total > CELL_CAP:
        raise ResourceCapError("depth %d means %d cells, cap is %d"
                               % (depth, total, CELL_CAP))
    return [lo, hi, list(itertools.product(*(range(s) for s in sizes)))]


def invariant_core(system: FlowSystem, target: ClopenSet, *, depth: int,
                   horizon: int) -> InvariantCoreApprox:
    _require_cells(system)
    system.require_integer_action()
    _check_probe(horizon, depth)
    if target.scheme != system.scheme:
        raise DomainError("target set lives on a different scheme")
    lo, hi, cells = _cells(system, depth)
    if target.is_full or target.is_empty:
        chosen = frozenset(cells) if target.is_full else frozenset()
        return InvariantCoreApprox(depth, horizon, (lo, hi), chosen, chosen,
                                   {}, {})
    scheme = system.scheme
    need_depth = max(scheme.offset(target.lo), scheme.offset(target.hi)) + 1
    # an element the depth does not resolve can neither keep a cell in
    # nor move it out.  Every element the depth resolves is searched
    # through ``reach``, the largest radius whose whole ball it resolves;
    # each longer element counts as blind, so an input depth that is not
    # monotone in |g| can only turn a cell unknown, never decide one.
    # Layer r of Z is {r, -r} (the identity at r = 0), so the layers
    # are scanned only up to the first one the depth does not resolve;
    # each blind layer holds two elements, the identity's layer one
    resolves = system.required_input_depth
    reach = next((r - 1 for r in range(horizon + 1)
                  if max(resolves(r, need_depth),
                         resolves(-r, need_depth)) > depth), horizon)
    blind = 2 * (horizon - reach) - (reach < 0)
    left = (0,) if scheme.kind == "two-sided" else None
    inner, outer = [], []
    excluded, unknown = {}, {}
    for pattern in cells:
        base = canonical_point(scheme, lo, pattern, (0,), left)
        hit = None if reach < 0 else _first_hit(
            system, (base,), reach, lambda im: not target.member(im[0]))
        if hit is not None:
            excluded[pattern] = system.group.format_element(hit[1])
            continue
        outer.append(pattern)
        if blind:
            unknown[pattern] = blind
        else:
            inner.append(pattern)
    return InvariantCoreApprox(depth, horizon, (lo, hi), frozenset(inner),
                               frozenset(outer), excluded, unknown)


# ---------------------------------------------------------------------------
# orbit cells and semicontinuity


@dataclass(frozen=True)
class OrbitCells:
    """Depth cells met by the orbit through the horizon ball, with one
    reaching element per cell."""

    depth: int
    horizon: int
    window: tuple
    cells: frozenset
    witnesses: Mapping


def orbit_cylinders(system: FlowSystem, x, *, horizon: int,
                    depth: int) -> OrbitCells:
    """Each cell's witness is the first element, in breadth-first
    order, whose image lies in it: the orbit search meets each image
    with its first element (see ``_first_least``), and on Z that order
    is ``sort_key`` order."""
    _require_cells(system)
    _check_probe(horizon, depth)
    lo, hi = system.scheme.depth_window(depth)
    witnesses: dict = {}
    for _, (y,), g in system.orbit_layers((x,), horizon):
        pattern = tuple(read_symbols(y, lo, hi))
        if pattern not in witnesses:
            witnesses[pattern] = system.group.format_element(g)
    return OrbitCells(depth, horizon, (lo, hi), frozenset(witnesses),
                      witnesses)


def usc_verdict(system: FlowSystem, x, *, horizon: int, depth: int,
                neighbor_depth_max: int) -> Verdict:
    """Orbit containment under perturbation: representative neighbors
    at some tested resolution must keep their horizon orbits inside
    the depth-resolution trace of the point's own orbit.  The trace is
    read from the distinct images of the point's orbit search, and each
    representative's escape element is the first in breadth-first
    order, found by one orbit search from it (see ``_first_least``)."""
    _check_probe(horizon, depth)
    _check_int(neighbor_depth_max, "neighbor depth cap", depth)
    name = "orbit-upper-semicontinuity"
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth, neighbor_depth_max=neighbor_depth_max)
    # no representatives: fail before the search
    reps = system.neighbor_reps(x, depth)
    own = [im[0] for _, im, _ in system.orbit_layers((x,), horizon)]
    if system.kind == "cylinder-z":
        lo, hi = system.scheme.depth_window(depth)
        cells = frozenset(tuple(read_symbols(p, lo, hi)) for p in own)

        def escapes(images) -> bool:
            return tuple(read_symbols(images[0], lo, hi)) not in cells
    else:
        tests = [system.cell(p, depth) for p in own]

        def escapes(images) -> bool:
            return not any(test(images[0]) for test in tests)
    last_failure = None
    for dprime in range(depth, neighbor_depth_max + 1):
        if dprime > depth:
            reps = system.neighbor_reps(x, dprime)
        failure = None
        for rep in reps:
            hit = _first_hit(system, (rep,), horizon, escapes)
            if hit is not None:
                failure = dprime, rep, hit[1]
                break
        if failure is None:
            return holds(name, params, {
                "neighbor_depth": dprime,
                "representatives": len(reps),
            })
        last_failure = failure
    dprime, rep, g = last_failure
    return fails(name, params, {
        "deepest_tried": dprime,
        "escaping_representative": system.format_point(rep),
        "escape_element": system.group.format_element(g),
    })


def orbit_symmetry_verdict(system: FlowSystem, pairs: Sequence, *,
                           horizon: int, depth: int) -> Verdict:
    """For each sampled pair, reaching y from x at the stated depth
    must be matched by reaching x back from y.

    Each witness is the first element, in breadth-first order within
    the horizon, that moves the one point into the other's depth cell,
    found by one orbit search from the point (see ``_first_least``); an
    orbit that closes short of the horizon settles a missing reach at
    every horizon."""
    _check_probe(horizon, depth)
    if not pairs:
        raise PreconditionError("need at least one pair")
    name = "orbit-symmetry"
    params = _params(system, horizon=horizon, depth=depth, pairs=len(pairs))

    def reach(a, b):
        home = system.cell(b, depth)
        hit = _first_hit(system, (a,), horizon, lambda im: home(im[0]))
        return None if hit is None else hit[1]

    established = []
    unestablished = []
    for x, y in pairs:
        fwd = reach(x, y)
        if fwd is None:
            unestablished.append([system.format_point(x),
                                  system.format_point(y)])
            continue
        back = reach(y, x)
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


# ---------------------------------------------------------------------------
# equicontinuity


def equicontinuity_verdict(system: FlowSystem, *, horizon: int, depth: int,
                           input_depth_max: int = 64) -> Verdict:
    """Stabilization of the input-depth modulus across the horizon.

    The modulus table lists, per radius, the input resolution needed so
    that every element of that radius ball maps it inside the target
    depth.  A table still growing across the top half of the range, or
    blowing past the cap, refutes uniform control at this horizon.

    When both generators +-1 have input depth ``depth``, each maps a
    depth cell into one, and so, by the left-action law, does every
    element: the table is ``depth`` at every radius, read from those
    two calls instead of one per element."""
    system.require_integer_action()
    _check_probe(horizon, depth)
    if horizon < 2:
        raise PreconditionError("horizon must be >= 2")
    _check_int(input_depth_max, "input depth cap", depth)
    name = "equicontinuity"
    params = _params(system, horizon=horizon, depth=depth,
                     input_depth_max=input_depth_max)
    if all(system.required_input_depth(s, depth) == depth for s in (1, -1)):
        return holds(name, params, {"table": [depth] * horizon,
                                    "midpoint": (horizon + 1) // 2,
                                    "modulus": depth})
    table = []
    current = depth
    for h in range(1, horizon + 1):
        for g in (h, -h):
            current = max(current, system.required_input_depth(g, depth))
        if current > input_depth_max:
            return fails(name, params, {
                "exceeded_cap_at_radius": h,
                "value": current,
                "input_depth_max": input_depth_max,
                "table": table,
            })
        table.append(current)
    mid = (horizon + 1) // 2
    cert = {"table": table, "midpoint": mid}
    if table[-1] == table[mid - 1]:
        cert["modulus"] = table[-1]
        return holds(name, params, cert)
    cert["growth"] = [[mid, table[mid - 1]], [horizon, table[-1]]]
    return fails(name, params, cert)


# ---------------------------------------------------------------------------
# language-level recurrence


def uniform_recurrence_verdict(system: FlowSystem, *, word_length: int,
                               window_max: int) -> Verdict:
    """Every admissible window of some bounded size must contain every
    admissible word of the stated length; a pumpable word avoiding one
    refutes it."""
    _check_int(word_length, "word length", 1)
    _check_int(window_max, "window cap", word_length)
    name = "uniform-recurrence"
    params = _params(system, word_length=word_length, window_max=window_max)
    lang_n = system.language(word_length)
    if lang_n is None:
        raise DomainError("system %r has no word language"
                          % system.system_id)

    def contains_all(w: tuple) -> bool:
        found = {w[i:i + word_length]
                 for i in range(len(w) - word_length + 1)}
        return lang_n <= found

    for R in range(word_length, window_max + 1):
        words = system.language(R)
        if all(contains_all(w) for w in words):
            return holds(name, params, {
                "recurrence_window": R,
                "windows_checked": len(words),
            })
    for p in range(1, PUMP_PERIOD_MAX + 1):
        for w in sorted(system.language(p)):
            reps = (window_max // p) + 2
            pumped = (w * reps)[:window_max]
            if pumped not in system.language(window_max):
                continue
            cyclic = {(w * ((word_length // p) + 2))[i:i + word_length]
                      for i in range(p)}
            avoided = next((u for u in sorted(lang_n) if u not in cyclic),
                           None)
            if avoided is not None:
                return fails(name, params, {
                    "pumped_word": list(w),
                    "pumped_length": window_max,
                    "avoided_word": list(avoided),
                })
    return inconclusive(name, params, {"window_max": window_max,
                                       "pump_period_max": PUMP_PERIOD_MAX})


# ---------------------------------------------------------------------------
# proximality


def proximal_verdict(system: FlowSystem, x, y, *, horizon: int,
                     depth: int) -> Verdict:
    """Some horizon element must push the two points into one depth
    cell.

    The witness is the first such element in breadth-first order; on
    FAILS, the first element attaining the least distance within the
    horizon.  One orbit search of the pair finds either (see
    ``_first_least``): it stops at the first image in one cell, or
    runs to the horizon for the least distance."""
    _check_probe(horizon, depth)
    if system.equal(x, y):
        raise PreconditionError("points coincide; proximality needs a "
                                "distinct pair")
    name = "proximal-pair"
    params = _params(system, point_x=system.format_point(x),
                     point_y=system.format_point(y), horizon=horizon,
                     depth=depth)
    target = Fraction(1, 2 ** depth)
    least, _, g, images = _first_least(
        system, (x, y), horizon, lambda im: system.distance(*im), target)
    if least <= target:
        return holds(name, params, {
            "witness": system.group.format_element(g),
            "distance": system.distance(*images),
        })
    return fails(name, params, {
        "min_distance": least,
        "at_element": system.group.format_element(g),
    })


@dataclass(frozen=True)
class RegionalProximalWitness:
    """Approach data for one pair: points x_j near x, y_j near y, and
    elements g_j pushing x_j and y_j together."""

    x: object
    y: object
    entries: tuple  # of (x_j, y_j, g_j)


def regional_proximal_check(system: FlowSystem,
                            witness: RegionalProximalWitness, *,
                            depth: int) -> Verdict:
    """Verify a regional-proximality witness chain: both approach
    distances and the pushed-together distances must be nonincreasing
    and end at or below the target resolution."""
    _check_int(depth, "depth", 1)
    if len(witness.entries) < 2:
        raise PreconditionError("witness needs at least two entries")
    name = "regional-proximal"
    params = _params(system, point_x=system.format_point(witness.x),
                     point_y=system.format_point(witness.y), depth=depth,
                     entries=len(witness.entries))
    dx, dy, dd = [], [], []
    for xj, yj, gj in witness.entries:
        dx.append(system.distance(xj, witness.x))
        dy.append(system.distance(yj, witness.y))
        dd.append(system.distance(system.act(gj, xj), system.act(gj, yj)))
    for label, seq in (("approach_x", dx), ("approach_y", dy),
                       ("pushed_together", dd)):
        for i in range(1, len(seq)):
            if seq[i] > seq[i - 1]:
                return fails(name, params, {
                    "violated_sequence": label,
                    "at_entry": i,
                    "values": seq,
                })
    eps = Fraction(1, 2 ** depth)
    for label, seq in (("approach_x", dx), ("approach_y", dy),
                       ("pushed_together", dd)):
        if seq[-1] > eps:
            return fails(name, params, {
                "sequence_not_fine_enough": label,
                "final_value": seq[-1],
                "target": eps,
            })
    return holds(name, params, {
        "approach_x": dx,
        "approach_y": dy,
        "pushed_together": dd,
        "elements": [system.group.format_element(g)
                     for _, _, g in witness.entries],
    })


def standard_rp_witness(system: FlowSystem,
                        depth: int) -> RegionalProximalWitness:
    """The canonical witness chains of the two word-group systems."""
    _check_int(depth, "depth", 1)
    count = max(2, depth)
    m = getattr(system.group, "m", None)
    if m is None or count > m:
        raise DomainError("system %r has no standard witness at depth %d "
                          "(truncation %s)" % (system.system_id, depth, m))
    if system.system_id == "two-copy":
        x, y = system.point("o-plus"), system.point("o-minus")
        entries = []
        for j in range(1, count + 1):
            entries.append((system.family("step", j, 1), y,
                            system.group.named_generator("b%d" % j)))
        return RegionalProximalWitness(x, y, tuple(entries))
    if system.system_id == "mcmahon":
        x, y = system.point("marked"), system.point("base")
        entries = []
        for j in range(1, count + 1):
            entries.append((system.family("ring-flipped", j, 1),
                            system.family("ring", j, 0),
                            (frozenset({j}), 0)))
        return RegionalProximalWitness(x, y, tuple(entries))
    raise DomainError("no standard witness for system %r" % system.system_id)


# ---------------------------------------------------------------------------
# covering returns by translates


def translate_cover_verdict(system: FlowSystem, x, *, horizon: int,
                            depth: int, cover_cap: int) -> Verdict:
    """Greedy cover of the horizon interval by nonnegative translates
    of the return-time set, candidates taken in ascending order."""
    _check_probe(horizon, depth)
    _check_int(cover_cap, "cover cap", 1)
    name = "translate-cover"
    params = _params(system, point=system.format_point(x), horizon=horizon,
                     depth=depth, cover_cap=cover_cap)
    # a target t <= horizon less a translate c >= 0 reads no return
    # time above horizon
    times = set(return_times(system, x, depth, -horizon - cover_cap,
                             horizon)) | {0}
    targets = set(range(-horizon, horizon + 1))
    chosen = []
    covered: set = set()
    for c in range(0, cover_cap + 1):
        gain = ({t + c for t in times} & targets) - covered
        if gain:
            chosen.append(c)
            covered |= gain
        if covered == targets:
            return holds(name, params, {
                "cover": chosen,
                "cover_size": len(chosen),
            })
    return fails(name, params, {
        "partial_cover": chosen,
        "uncovered_sample": sorted(targets - covered)[:8],
    })
