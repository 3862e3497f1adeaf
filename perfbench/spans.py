"""Span tracing of zerodim's layers, done from outside the package.

``install`` wraps the public functions of each layer and rebinds every
name under which a zerodim module holds them (``analysis`` binds
``word_length`` from ``groups``, ``flows`` binds cantor's ``distance``
as ``cantor_distance``), so calls between modules are caught as well
as calls from the benchmark.  Each wrapped call records one span:
name, start, end, parent span and task id.  ``Group.multiply`` on
every group class is counted without a span, because it runs far too
often to time one call at a time.  ``uninstall`` restores every
original binding.

Spans stay in memory; ``self_times`` and ``summarize`` turn them into
per-layer numbers after the traced pass ends.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, public functions of that layer)
FUNCTIONS = (
    ("groups", "zerodim.groups", (
        "word_length", "ball", "sphere", "power_set", "_ball_layers",
        "cone_layer", "cone_approx", "is_thick_window", "is_syndetic_window",
        "layer_embedding_check", "layer_embedding_bound")),
    ("subgroups", "zerodim.subgroups", (
        "intersect_subgroups", "normal_core", "all_subgroups",
        "subgroup_index", "induced_generating_set", "generation_check",
        "generates_within", "symmetric_group", "dihedral_group",
        "cyclic_group")),
    ("cantor.point", "zerodim.cantor", (
        "make_point", "distance", "points_equal", "depth_cylinder")),
    ("cantor.clopen", "zerodim.cantor", (
        "clopen", "from_cylinder", "complement", "union", "intersection",
        "sym_diff")),
    ("analysis", "zerodim.analysis", (
        "ap_verdict", "regular_ap_verdict", "pointwise_period_verdict",
        "type1_verdict", "pair_type1_verdict", "type2_verdict",
        "weak_rigidity_verdict", "escape_length", "confinement_verdict",
        "invariant_core", "orbit_cylinders", "usc_verdict",
        "orbit_symmetry_verdict", "equicontinuity_verdict",
        "uniform_recurrence_verdict", "proximal_verdict",
        "regional_proximal_check", "standard_rp_witness",
        "translate_cover_verdict", "return_times", "depth_ball")),
    ("harness", "zerodim.harness", ("run_config", "run_check")),
    ("cli", "zerodim.cli", ("main",)),
)

# span name -> (module, class, methods)
METHODS = (
    ("flows.act", "zerodim.flows", "FlowSystem", ("act",)),
    ("flows.distance", "zerodim.flows", "FlowSystem", ("distance",)),
    ("cantor.clopen", "zerodim.cantor", "ClopenSet", ("member",)),
    ("verdict", "zerodim.verdict", "Verdict", ("to_json", "render")),
)

CHECK_SPAN = "harness.check"
TASK_SPAN = "task"


class Tracer:
    """In-memory span recorder for one traced pass.

    ``spans[i]`` is ``(name, start, end, parent, task, failed)`` for
    span id ``i``; ``parent`` is -1 for a root span.
    """

    def __init__(self):
        self.spans: list = []
        self.task = -1
        self.multiply_calls = 0
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task, failed)

        traced.__wrapped__ = fn
        return traced

    def count_multiply(self, fn):
        def counted(*args):
            self.multiply_calls += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted


def _zerodim_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "zerodim" or name.startswith("zerodim.")]


def _group_classes(base) -> list:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if "multiply" in vars(cls):
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def install(tracer: Tracer) -> list:
    """Wrap every layer entry point; returns the undo list for
    ``uninstall``."""
    import zerodim.flows  # noqa: F401  (defines the word-group classes)
    from zerodim import groups, harness

    modules = _zerodim_modules()
    undo: list = []

    def rebind(owner, key, value):
        if isinstance(owner, dict):
            undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    for name, modname, attrs in FUNCTIONS:
        home = sys.modules[modname]
        for attr in attrs:
            original = getattr(home, attr)
            wrapped = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        rebind(mod, key, wrapped)
    for name, modname, clsname, methods in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for meth in methods:
            rebind(cls, meth, tracer.wrap(name, vars(cls)[meth]))
    for key, check in list(harness.CHECKS.items()):
        rebind(harness.CHECKS, key, tracer.wrap(CHECK_SPAN, check))
    for cls in _group_classes(groups.Group):
        rebind(cls, "multiply", tracer.count_multiply(vars(cls)["multiply"]))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest without overlap, so the children of a span
    cover exactly the sum of their durations."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c
            for (_, start, end, _, _, _), c in zip(spans, child)]


def summarize(spans: list) -> dict:
    """Per span name: calls, summed self time, and calls that raised."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0,
                                       "errors": 0})
        row["calls"] += 1
        row["self_s"] += own
        row["errors"] += span[5]
    return out
