"""Reachability: every definition in ``src/zerodim`` is reached by a
product path, or is allowlisted with the consumer that keeps it.

The probe runs these paths under ``sys.setprofile`` and records every
function it enters:

- ``list`` and ``list --json``
- ``analyze SYSTEM ANALYZER --horizon 4 --depth 2`` for every system
  and analyzer, plain and ``--json``
- ``gallery --seed 0`` to ``--seed 11``, plain and ``--json``
- ``verify``, ``verify --json`` and ``verify --config
  configs/negative-control.json``
- two usage errors (exit 64): an option value that does not parse,
  and a config entry of the wrong JSON type, as in the CI smoke step
- the three demos

Each ``def`` of the package, methods and closures included, is keyed
``module:qualname``; a second definition of one name in one scope gets
the suffix ``[2]``.  The unreached keys must be exactly the keys of
``ALLOWED``.  So a new definition that nothing reaches fails the test,
and so does an entry whose definition is reached now, or gone.  Each
entry names one reason from ``REASONS``, or the ROADMAP item that will
call it.

The probe runs in a fresh interpreter with the profile on before the
package is imported: code run at import counts, and no cache that an
earlier test filled (the CLI parser, the system catalog) hides a call.
Run as a script, this file prints the unreached definitions:

    PYTHONPATH=src python tests/test_reach.py
"""

import ast
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zerodim"

PROTOCOL = "group protocol"  # a member of the Group or Subgroup interface
DEBUG = "debugging aid"  # a repr for the interactive reader
TASK = "benchmark task"  # a perfbench workload calls it
CANON = "benchmark canon"  # a perfbench task's canon step reads it
TRACER = "benchmark tracer"  # perfbench/spans.py looks it up by name
ORACLE = "test oracle"  # the tests use it as their reference
REASONS = (PROTOCOL, DEBUG, TASK, CANON, TRACER, ORACLE)


def item(n: int) -> str:
    return "ROADMAP item %d" % n


ALLOWED = {
    "analysis:InvariantCoreApprox.to_json": CANON,
    "analysis:depth_ball": TRACER,
    "analysis:orbit_cylinders": TRACER,
    "cantor:ClopenSet.__repr__": DEBUG,
    "cantor:ClopenSet.patterns": ORACLE,
    "cantor:ClopenSet.to_json": CANON,
    "cantor:Cylinder.__post_init__": TRACER,  # built by depth_cylinder
    "cantor:Cylinder.__repr__": DEBUG,
    "cantor:Cylinder.member": ORACLE,
    "cantor:Scheme.to_json": CANON,  # inside ClopenSet.to_json
    "cantor:_decode": CANON,  # inside ClopenSet.to_json
    "cantor:_full_clopen": TRACER,  # called by from_cylinder only
    "cantor:complement": item(8),
    "cantor:depth_cylinder": TRACER,
    "cantor:from_cylinder": TRACER,
    "cantor:intersection": item(8),
    "cantor:points_equal": TRACER,
    "cantor:union": item(8),
    "flows:FlowSystem.__repr__": DEBUG,
    "flows:McMahonGroup.closed_form_length": PROTOCOL,
    "flows:McMahonGroup.inverse": PROTOCOL,
    "flows:TwoCopyGroup.inverse": PROTOCOL,
    "flows:build_mcmahon.<locals>.input_depth": item(1),
    "flows:build_two_copy.<locals>.input_depth": item(1),
    "groups:CyclicSumGroup.__init__": TASK,
    "groups:CyclicSumGroup.closed_form_length": TASK,
    "groups:CyclicSumGroup.describe": TASK,
    "groups:CyclicSumGroup.format_element": TASK,
    "groups:CyclicSumGroup.generators": TASK,
    "groups:CyclicSumGroup.identity": TASK,
    "groups:CyclicSumGroup.inverse": TASK,
    "groups:CyclicSumGroup.multiply": TASK,
    "groups:CyclicSumGroup.sort_key": TASK,
    "groups:CyclicSumGroup.symmetric": TASK,
    "groups:CyclicSumGroup.validate": TASK,
    "groups:ElementSet.__contains__": ORACLE,
    "groups:ElementSet.sorted": ORACLE,
    "groups:FiniteGroup.describe": PROTOCOL,
    "groups:FiniteGroup.format_element": PROTOCOL,
    "groups:FiniteGroup.generators": PROTOCOL,
    "groups:FiniteGroup.validate": PROTOCOL,
    "groups:FreeGroupVariant.__init__": item(19),
    "groups:FreeGroupVariant.closed_form_length": item(19),
    "groups:FreeGroupVariant.describe": item(19),
    "groups:FreeGroupVariant.format_element": item(19),
    "groups:FreeGroupVariant.generators": item(19),
    "groups:FreeGroupVariant.identity": item(19),
    "groups:FreeGroupVariant.inverse": item(19),
    "groups:FreeGroupVariant.multiply": item(19),
    "groups:FreeGroupVariant.sort_key": item(19),
    "groups:FreeGroupVariant.validate": item(19),
    "groups:Group.__repr__": DEBUG,
    "groups:Group.closed_form_length": PROTOCOL,
    "groups:Group.cone_members": PROTOCOL,
    "groups:Group.format_element": PROTOCOL,
    "groups:Group.generators": PROTOCOL,
    "groups:Group.identity": PROTOCOL,
    "groups:Group.inverse": PROTOCOL,
    "groups:Group.multiply": PROTOCOL,
    "groups:Group.sort_key": PROTOCOL,
    "groups:Group.validate": PROTOCOL,
    "groups:IntegerGroup.inverse": PROTOCOL,
    "groups:LatticeGroup.describe": PROTOCOL,
    "groups:LatticeGroup.inverse": PROTOCOL,
    "groups:_CayleySearch.word_length": ORACLE,  # word_length(method="bfs")
    "groups:_cone_member": TASK,  # under layer_embedding_bound
    "groups:_elements": TASK,  # under layer_embedding_bound
    "groups:_first_translate": TASK,  # under layer_embedding_bound
    "groups:_layer": TASK,  # under sphere and layer_embedding_bound
    "groups:cone_layer": TRACER,
    "groups:layer_embedding_bound": TASK,
    "groups:layer_embedding_check": TRACER,
    "groups:sphere": TASK,
    "harness:run_check": TRACER,
    "subgroups:FiniteSubgroup.contains": PROTOCOL,
    "subgroups:FiniteSubgroup.meet": PROTOCOL,
    "subgroups:LatticeSubgroup.__post_init__": item(11),
    "subgroups:LatticeSubgroup.contains": item(11),
    "subgroups:LatticeSubgroup.index": item(11),
    "subgroups:LatticeSubgroup.meet": item(11),
    "subgroups:LatticeSubgroup.to_json": CANON,
    "subgroups:Subgroup.contains": PROTOCOL,
    "subgroups:Subgroup.core": PROTOCOL,
    "subgroups:Subgroup.index": PROTOCOL,
    "subgroups:Subgroup.is_normal": PROTOCOL,
    "subgroups:Subgroup.meet": PROTOCOL,
    "subgroups:_hnf_rows": item(11),
    "subgroups:cyclic_group": TRACER,
    "subgroups:generates_within": TASK,
    "subgroups:generation_check": TRACER,
    "subgroups:induced_generating_set": TRACER,
    "verdict:Status.__str__": DEBUG,
}


def definitions() -> dict:
    """``module:qualname`` -> (file, first line) of every ``def`` in the
    package.  The first line is the first decorator's, as in
    ``co_firstlineno``."""
    out = {}

    def walk(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                key, n = "%s:%s" % (module, name), 2
                while key in out:
                    key, n = "%s:%s[%d]" % (module, name, n), n + 1
                out[key] = (path, min([child.lineno] + [
                    d.lineno for d in child.decorator_list]))
                walk(child, path, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, module, prefix + child.name + ".")
            else:
                walk(child, path, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path),
             path.stem, "")
    return out


def _product_paths() -> None:
    from zerodim import cli
    from zerodim.flows import available_systems

    def run(*argv):
        cli.main(list(argv))

    run("list")
    run("list", "--json")
    for system in available_systems():
        for analyzer in cli.available_analyzers():
            run("analyze", system, analyzer, "--horizon", "4", "--depth", "2")
            run("analyze", system, analyzer, "--horizon", "4", "--depth", "2",
                "--json")
    for seed in range(12):
        run("gallery", "--seed", str(seed))
        run("gallery", "--seed", str(seed), "--json")
    run("verify")
    run("verify", "--json")
    run("verify", "--config", str(ROOT / "configs" / "negative-control.json"))
    run("analyze", "odometer", "almost-periodic", "--horizon", "x")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "bad.json"
        config.write_text(json.dumps({"schema": "zerodim-verify/1", "checks": [
            {"check": "cone-returns-give-syndetic", "horizon": 8.5}]}))
        run("verify", "--config", str(config))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def unreached() -> list:
    """The keys of the definitions no product path enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            _product_paths()
        finally:
            sys.setprofile(None)
    import zerodim
    if Path(zerodim.__file__).resolve().parent != SRC:
        raise SystemExit("probed %s, not %s" % (zerodim.__file__, SRC))
    real = {f: os.path.realpath(f) for f in {c.co_filename for c in codes}}
    entered = {(real[c.co_filename], c.co_firstlineno) for c in codes}
    return sorted(key for key, where in definitions().items()
                  if where not in entered)


def _probe() -> set:
    path = [str(SRC.parent)] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_unreached_definitions_are_exactly_the_allowlist():
    found = _probe()
    new = sorted(found - set(ALLOWED))
    stale = sorted(set(ALLOWED) - found)
    assert not new, ("reached by no product path; call it, delete it, or "
                     "add an ALLOWED entry naming its consumer: %s" % new)
    assert not stale, ("ALLOWED entries whose definition is reached or "
                       "gone; drop them: %s" % stale)


def test_every_entry_names_a_known_reason():
    odd = {key: why for key, why in ALLOWED.items()
           if why not in REASONS and not re.fullmatch(r"ROADMAP item [1-9]\d*",
                                                      why)}
    assert not odd


if __name__ == "__main__":
    print("\n".join(unreached()))
