"""Workbench entry point: subcommands, exit codes, output determinism."""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from zerodim import cli
from zerodim.cli import (EXIT_GENERIC, EXIT_INCONCLUSIVE, EXIT_NOINPUT,
                         EXIT_OK, EXIT_USAGE, EXIT_VIOLATION,
                         available_analyzers, main)
from zerodim.flows import FlowSystem, available_systems


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text_listing(self, capsys):
        code, out, err = run(capsys, "list")
        assert code == EXIT_OK
        assert err == ""
        for needle in ("systems:", "analyzers:", "checks:", "odometer",
                       "thue-morse", "almost-periodic",
                       "syndetic-thick-duality"):
            assert needle in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "list", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["systems"]) == 8
        assert len(data["analyzers"]) == 15
        assert len(data["checks"]) == 11
        ids = [s["id"] for s in data["systems"]]
        assert ids == sorted(ids)

    def test_analyzer_names(self):
        assert len(available_analyzers()) == 15
        assert "equicontinuity" in available_analyzers()
        assert "pair-recurrence" in available_analyzers()


class TestAnalyze:
    def test_holds_exits_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "odometer", "almost-periodic",
                           "--point", "zero", "--horizon", "8",
                           "--depth", "2")
        assert code == EXIT_OK
        assert out.startswith("almost-periodic: HOLDS")

    def test_fails_still_exits_zero(self, capsys):
        # a definite negative is a computed answer, not an error
        code, out, _ = run(capsys, "analyze", "thue-morse", "equicontinuity",
                           "--horizon", "16", "--depth", "1")
        assert code == EXIT_OK
        assert out.startswith("equicontinuity: FAILS")

    def test_inconclusive_exits_two(self, capsys):
        code, out, _ = run(capsys, "analyze", "successor-map",
                           "pointwise-period", "--point", "unit",
                           "--period-max", "1")
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", "odometer", "regular-return",
                           "--json", "--point", "zero")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["status"] == "holds"
        assert data["certificate"]["modulus"] == 4

    def test_pair_analyzer_needs_two_points(self, capsys):
        code, _, err = run(capsys, "analyze", "thue-morse",
                           "pair-recurrence", "--point", "reflection")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_analyzer(self, capsys):
        code, _, err = run(capsys, "analyze", "odometer", "nonsense")
        assert code == EXIT_USAGE
        assert "unknown analyzer" in err

    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "analyze", "atlantis", "almost-periodic")
        assert code == EXIT_GENERIC
        assert "unknown system" in err

    # the depth cell is the system's own, so confinement runs on word
    # groups and metric systems too; flipping a coordinate of the cell
    # moves a word-group point out of it at length 1
    @pytest.mark.parametrize("system,status,certificate", [
        ("two-copy", "fails", {"escape_element": "e-1", "escape_length": 1}),
        ("mcmahon", "fails", {"escape_element": "t-1", "escape_length": 1}),
        ("circle-stack", "fails", {"escape_element": "1",
                                   "escape_length": 1}),
        ("circle-stack-components", "holds", {"elements_checked": 17}),
    ])
    def test_confinement_on_every_system(self, capsys, system, status,
                                         certificate):
        code, out, err = run(capsys, "analyze", system, "orbit-confinement",
                             "--json")
        assert (code, err) == (EXIT_OK, "")
        result = json.loads(out)
        assert result["status"] == status
        assert result["certificate"] == certificate

    @pytest.mark.parametrize("system", available_systems())
    @pytest.mark.parametrize("analyzer", available_analyzers())
    def test_every_pair_exits_cleanly(self, capsys, system, analyzer):
        code, _, err = run(capsys, "analyze", system, analyzer,
                           "--horizon", "4", "--depth", "2")
        if code in (EXIT_OK, EXIT_INCONCLUSIVE):
            assert err == ""
        else:
            assert code in (EXIT_GENERIC, EXIT_USAGE)
            prefix = "error: " if code == EXIT_GENERIC else "usage error: "
            assert err.startswith(prefix)

    # 0 was read as absent and ran at depth + 2
    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_neighbor_depth_cap_below_depth_is_an_error(self, capsys, cap):
        code, out, err = run(capsys, "analyze", "circle-stack",
                             "orbit-upper-semicontinuity", "--point", "limit",
                             "--depth", "3", "--neighbor-depth-max", cap)
        assert (code, out) == (EXIT_GENERIC, "")
        assert err == "error: neighbor depth cap must be >= 3\n"


class TestVerify:
    def test_default_battery_consistent(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert out.startswith("# Consistency run")
        assert "**CONSISTENT**" in out
        assert "VIOLATION" not in out

    def test_config_file(self, capsys):
        code, out, _ = run(capsys, "verify", "--config",
                           "configs/default.json")
        assert code == EXIT_OK
        assert "Overall outcome: **CONSISTENT**" in out

    def test_negative_control_violates(self, capsys):
        code, out, _ = run(capsys, "verify", "--config",
                           "configs/negative-control.json")
        assert code == EXIT_VIOLATION
        assert "Overall outcome: **VIOLATION**" in out

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "verify", "--config", "no/such/file.json")
        assert code == EXIT_NOINPUT
        assert "missing file" in err

    def test_config_that_cannot_be_opened(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify", "--config", str(tmp_path))
        assert code == EXIT_NOINPUT
        assert out == ""
        assert err.startswith("missing file: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"schema": "zerodim-verify/1", "checks": ["\xe9"]}')
        code, out, err = run(capsys, "verify", "--config", str(p))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: config %s is not valid JSON"
                              % p)

    @pytest.mark.parametrize("argv", [("list",), ("verify",),
                                      ("gallery", "--seed", "1")])
    def test_out_that_cannot_be_written(self, tmp_path, capsys, argv):
        for out_path in (tmp_path / "no" / "such" / "out.txt", tmp_path):
            code, out, err = run(capsys, *argv, "--out", str(out_path))
            assert code == EXIT_GENERIC
            assert out == ""
            assert err.startswith("error: cannot write --out: ")
            assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # a config value is an exact int: 8.9 would run as 8, true as 1
    @pytest.mark.parametrize("bad", [8.9, True, "8"])
    def test_inexact_int_is_usage_error(self, tmp_path, capsys, bad):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "schema": "zerodim-verify/1",
            "checks": [{"check": "cone-returns-give-syndetic",
                        "horizon": bad}]}))
        code, out, err = run(capsys, "verify", "--config", str(p))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("usage error: check 'cone-returns-give-syndetic': "
                       "'horizon' must be an integer, got %r\n" % (bad,))

    # a string list was iterated (exit 1), a list in place of a map
    # escaped as a traceback, and the string "true" ran as no assertion
    # (exit 0, where the boolean gives VIOLATION and exit 3)
    @pytest.mark.parametrize("entry", [
        {"check": "uniform-modulus-gives-orbit-continuity", "points": "one"},
        {"check": "recurrence-vs-reach-symmetry", "asserted": [1]},
        {"check": "recurrence-vs-reach-symmetry", "system": "full-shift",
         "asserted": {"pointwise-recurrent": "true"}},
        # a misspelled key or hypothesis was dropped: the first ran at
        # horizon 8, the second exited 0 where the right name exits 3
        {"check": "cone-returns-give-syndetic", "horizn": 64},
        {"check": "recurrence-vs-reach-symmetry", "system": "full-shift",
         "asserted": {"pointwise-recurent": True}},
    ], ids=["points", "asserted-list", "asserted-string", "key-misspelled",
            "hypothesis-misspelled"])
    def test_mistyped_entry_is_usage_error(self, tmp_path, capsys, entry):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "zerodim-verify/1",
                                 "checks": [entry]}))
        code, out, err = run(capsys, "verify", "--config", str(p))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: check %r: " % entry["check"])

    # the check's type1_verdict needs Z; the two orbit searches before it
    # used to run to the end on two-copy and then hit the same error
    def test_one_way_reach_rejects_word_group_before_searching(
            self, tmp_path, capsys, monkeypatch):
        searches = []
        orbit_layers = FlowSystem.orbit_layers
        monkeypatch.setattr(FlowSystem, "orbit_layers",
                            lambda self, *a, **k: searches.append(a)
                            or orbit_layers(self, *a, **k))
        p = tmp_path / "owr.json"
        p.write_text(json.dumps({
            "schema": "zerodim-verify/1",
            "checks": [{"check": "one-way-reach-blocks-return",
                        "system": "two-copy", "source": "o-minus",
                        "target": "o-plus"}]}))
        code, out, err = run(capsys, "verify", "--config", str(p))
        assert code == EXIT_GENERIC
        assert out == ""
        assert err == ("error: analyzer needs an integer acting group, "
                       "system 'two-copy' has two-copy-word\n")
        assert searches == []

    def test_double_run_is_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(capsys, "verify", "--config", "configs/default.json",
                   "--out", str(a))[0] == EXIT_OK
        assert run(capsys, "verify", "--config", "configs/default.json",
                   "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path, capsys):
        p = tmp_path / "run.json"
        code, _, _ = run(capsys, "verify", "--json", "--out", str(p))
        assert code == EXIT_OK
        data = json.loads(p.read_text())
        assert data["outcome"] == "CONSISTENT"
        assert len(data["reports"]) == 14
        assert "elapsed_seconds" not in data

    def test_timings_flag_adds_clock(self, tmp_path, capsys):
        p = tmp_path / "run.json"
        code, _, _ = run(capsys, "verify", "--json", "--timings", "--out",
                         str(p))
        assert code == EXIT_OK
        assert "elapsed_seconds" in json.loads(p.read_text())


class TestGallery:
    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run(capsys, "gallery", "--seed", "3")
        _, second, _ = run(capsys, "gallery", "--seed", "3")
        assert first == second
        assert first.startswith("# System gallery")

    def test_seed_changes_sampling(self, capsys):
        _, out0, _ = run(capsys, "gallery", "--seed", "0")
        _, out1, _ = run(capsys, "gallery", "--seed", "1")
        assert out0 != out1

    def test_every_system_appears(self, capsys):
        _, out, _ = run(capsys, "gallery", "--json")
        data = json.loads(out)
        assert [s["system"] for s in data["sections"]] == [
            "full-shift", "thue-morse", "odometer", "successor-map",
            "two-copy", "mcmahon", "circle-stack",
            "circle-stack-components"]

    # each verdict line of the gallery is an analyze command line
    def test_analyzer_lines_rerun_as_analyze(self, capsys):
        _, out, _ = run(capsys, "gallery", "--json")
        shown = {s["system"]: s["lines"]
                 for s in json.loads(out)["sections"]}
        count = 0
        for system, analyses in cli.GALLERY.items():
            verdicts = shown[system][len(shown[system]) - len(analyses):]
            for line, expected in zip(analyses, verdicts):
                code, printed, err = run(capsys, "analyze", system,
                                         *line.split())
                assert (code, err) == (EXIT_OK, ""), line
                assert printed == expected + "\n", line
                count += 1
        assert count == 15


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == EXIT_USAGE
        assert "zerodim" in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "launch")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "list", "--frobnicate")
        assert code == EXIT_USAGE
        assert "usage error" in err

    @pytest.mark.parametrize("argv", [
        ("list",), ("verify",), ("analyze", "odometer", "almost-periodic"),
    ])
    def test_seed_is_gallery_only(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--seed" in err


class TestCachedParser:
    """The parser is built once per process, and a call that reuses it
    answers exactly as a call on a freshly built one: no option value,
    output target or error carries over from the call before."""

    def test_built_once(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        misses = cli._build_parser.cache_info().misses
        run(capsys, "list")
        run(capsys, "analyze", "odometer", "almost-periodic", "--json")
        run(capsys, "gallery", "--frobnicate")
        assert cli._build_parser.cache_info().misses == misses

    @staticmethod
    def outcome(capsys, argv, out_file):
        if out_file.exists():
            out_file.unlink()
        code, out, err = run(capsys, *argv)
        # the only wall-clock figure in any output
        out = re.sub(r"Wall time: \d+\.\d{3}s", "Wall time: <t>s", out)
        written = out_file.read_text() if out_file.exists() else None
        return code, out, err, written

    def test_reuse_matches_a_fresh_parser(self, capsys, tmp_path):
        out_file = tmp_path / "out.txt"
        probe = ("--horizon", "4", "--depth", "2")
        sequence = [
            ("analyze", "thue-morse", "orbit-symmetry", "--point",
             "reflection", "--point", "reflection-flipped", *probe),
            ("analyze", "thue-morse", "orbit-symmetry", *probe),
            ("analyze", "odometer", "almost-periodic", "--point", "one",
             "--json", *probe),
            ("analyze", "odometer", "almost-periodic", "--point", "one",
             *probe),
            ("verify", "--timings"),
            ("verify",),
            ("list", "--out", str(out_file)),
            ("list",),
            ("analyze", "odometer", "almost-periodic", "--horizon", "x"),
            ("gallery", "--seed", "3"),
        ]
        parser = cli._build_parser()
        reused = [self.outcome(capsys, argv, out_file) for argv in sequence]
        assert cli._build_parser() is parser
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv, out_file))
        assert reused == fresh
        codes = [code for code, *_ in reused]
        assert codes == [EXIT_OK] * 8 + [EXIT_USAGE, EXIT_OK]
        assert "Wall time: <t>s" in reused[4][1]
        assert "Wall time" not in reused[5][1]
        assert reused[6][1] == "" and reused[6][3] == reused[7][1]
        assert reused[0][1] != reused[1][1]
        assert reused[2][1] != reused[3][1]


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenOutput:
    """The default battery and the seed-7 gallery, byte for byte as
    recorded in tests/golden; a speed-up must not change a byte."""

    @pytest.mark.parametrize("argv, name", [
        (("verify", "--json"), "verify.json"),
        (("gallery", "--json", "--seed", "7"), "gallery_seed7.json"),
    ])
    def test_matches_golden(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def analyze_matrix() -> dict:
    """Exit code and stdout SHA-256 of ``analyze SYSTEM ANALYZER
    --horizon 4 --depth 2``, plain and with ``--json``, for every system
    and analyzer.  Regenerate the golden copy with

        PYTHONPATH=src:tests python -c "import json, test_cli; \\
        print(json.dumps(test_cli.analyze_matrix(), indent=2, \\
        sort_keys=True))" > tests/golden/analyze_matrix.json
    """
    matrix = {}
    for system in available_systems():
        for analyzer in available_analyzers():
            for extra in ((), ("--json",)):
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = main(["analyze", system, analyzer, "--horizon",
                                 "4", "--depth", "2", *extra])
                digest = hashlib.sha256(out.getvalue().encode("utf-8"))
                matrix[" ".join((system, analyzer) + extra)] = {
                    "exit": code, "stdout_sha256": digest.hexdigest()}
    return matrix


def test_analyze_matrix_matches_golden():
    golden = json.loads((GOLDEN / "analyze_matrix.json").read_text())
    assert analyze_matrix() == golden
