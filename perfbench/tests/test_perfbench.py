"""Tests of the benchmark's own code: span self times, seeded input
generation, and the oracles' rejection of mutated outputs.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import zerodim as zd  # noqa: E402

import oracles as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def systems():
    return {sid: zd.get_system(sid) for sid in zd.available_systems()}


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    tree = [("root", 0.0, 10.0, -1, 0, False),
            ("a", 1.0, 4.0, 0, 0, False),
            ("b", 5.0, 9.0, 0, 0, True),
            ("c", 6.0, 8.0, 2, 0, False)]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    summary = spans.summarize(tree + [("a", 11.0, 11.5, -1, 1, True)])
    assert summary["a"] == {"calls": 2, "self_s": 3.5, "errors": 1}
    assert summary["b"]["errors"] == 1
    assert sum(row["self_s"] for row in summary.values()) == 10.5


def test_tracer_nests_spans_and_counts_multiply(systems):
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        od = systems["odometer"]
        tracer.wrap("task", lambda: zd.ap_verdict(
            od, od.point("zero"), horizon=8, depth=2))()
        zd.word_length(zd.LatticeGroup(2), (2, 1), method="bfs")
    finally:
        spans.uninstall(undo)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "task" and "analysis" in names
    assert names.count("flows.act") == 24  # shifts -12..12 except 0
    parents = {s[0]: s[3] for s in tracer.spans}
    assert tracer.spans[parents["flows.act"]][0] == "analysis"
    assert tracer.multiply_calls > 0
    # everything is unwrapped again
    assert zd.ap_verdict is zd.analysis.ap_verdict
    assert not hasattr(zd.FlowSystem.act, "__wrapped__")
    assert not hasattr(zd.IntegerGroup.multiply, "__wrapped__")


def _outputs(name, seed, systems, count=15):
    tasks, _ = workloads.generate(name, seed, systems)
    return [(t.family, json.dumps(t.canon(t.run()), sort_keys=True))
            for t in tasks[:count]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name, systems):
    one = _outputs(name, 7, systems)
    assert one == _outputs(name, 7, systems)
    assert one != _outputs(name, 8, systems)
    a, _ = workloads.generate(name, 7, systems)
    b, _ = workloads.generate(name, 8, systems)
    # same size classes whatever the seed
    assert sorted(t.family for t in a) == sorted(t.family for t in b)
    assert len(a) >= 200


def _first_int_path(value, path=()):
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return path
    items = (sorted(value.items()) if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = _first_int_path(item, path + (key,))
        if found is not None:
            return found
    return None


def _bump(value, path):
    out = copy.deepcopy(value)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] -= 1
    return out


def _mutations(plain):
    """Wrong outputs of the same shape: a flipped verdict, a decremented
    certificate number, a dropped element, a changed exit code."""
    if isinstance(plain, int):
        return [plain + 1]
    if isinstance(plain, list):
        if plain and isinstance(plain[0], dict):  # clopen results
            dropped = copy.deepcopy(plain)
            dropped[0]["patterns"] = dropped[0]["patterns"][1:]
            added = copy.deepcopy(plain)
            pats = added[2]["patterns"]
            pats.append([1 - pats[0][0]] + pats[0][1:])
            return [dropped] + ([added] if pats[-1] not in pats[:-1] else [])
        if plain and isinstance(plain[0], list) and len(plain[0]) == 2 \
                and isinstance(plain[0][1], list):  # subgroups and cores
            return [plain[:-1],
                    [[h, core[:-1] or h] for h, core in plain]]
        return [plain[1:]]
    if "exit" in plain:
        out = [dict(plain, exit=plain["exit"] + 1)]
        body = json.loads(plain["stdout"])
        if "certificate" in body:
            out += [dict(plain, stdout=json.dumps(m))
                    for m in _mutations(body)]
        return out
    if "status" in plain:
        flipped = "fails" if plain["status"] == "holds" else "holds"
        out = [dict(plain, status=flipped)]
        path = _first_int_path(plain["certificate"])
        if path is not None:
            out.append(dict(plain, certificate=_bump(plain["certificate"],
                                                     path)))
        return out
    if "outcome" in plain:
        return [dict(plain, outcome="VIOLATION")]
    if "basis" in plain:
        basis = copy.deepcopy(plain["basis"])
        basis[0] = [2 * x for x in basis[0]]
        return [{"basis": basis}]
    if "elements" in plain:
        return [dict(plain, elements=plain["elements"][1:])]
    if "inner" in plain:
        moved = copy.deepcopy(plain)
        moved["excluded"] = dict(list(moved["excluded"].items())[1:])
        return [moved, dict(plain, inner=plain["inner"] + [[1] * 9])]
    raise AssertionError("no mutation for %r" % (plain,))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_oracle_accepts_the_output_and_rejects_mutations(name,
                                                              systems):
    tasks, warmup = workloads.generate(name, 3, systems)
    seen = {}
    for task in [warmup] + tasks:
        key = (task.family, task.run.__code__, task.oracle.__code__)
        if key in seen:
            continue
        seen[key] = task
        plain = json.loads(json.dumps(task.canon(task.run())))
        assert task.oracle(plain), task.family
        for wrong in _mutations(plain):
            assert not task.oracle(json.loads(json.dumps(wrong))), \
                (task.family, wrong)
    assert len(seen) >= 10


def test_thue_morse_oracle_matches_the_substitution():
    word = (0,)
    while len(word) < 300:
        word = tuple(s for a in word for s in {0: (0, 1), 1: (1, 0)}[a])
    assert [O.thue_morse(k) for k in range(300)] == list(word[:300])


def test_quantile_matches_statistics():
    values = [float(x) for x in random.Random(1).sample(range(1000), 250)]
    assert run.quantile(values, 0.5) == pytest.approx(
        sorted(values)[124] / 2 + sorted(values)[125] / 2)
    assert run.quantile(values, 0.95) > run.quantile(values, 0.5)
