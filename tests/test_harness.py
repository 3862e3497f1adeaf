"""Consistency harness: check outcomes on the bundled systems, outcome
ranking, assertion flagging, and report rendering."""

import json
import pathlib

import pytest

from zerodim import harness, subgroups
from zerodim.config import default_config, load_config
from zerodim.errors import UsageError
from zerodim.harness import (CONSISTENT, INCONCLUSIVE, VIOLATION,
                             CheckReport, HarnessRun, available_checks,
                             run_check, run_config)
from zerodim.verdict import holds

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def negative_control():
    """The shipped battery of deliberately false assertions."""
    return load_config(str(CONFIGS / "negative-control.json"))


class TestCatalogue:
    def test_available_checks(self):
        assert available_checks() == (
            "cone-returns-give-syndetic",
            "joint-returns-under-uniform-modulus",
            "one-way-reach-blocks-return",
            "pointwise-periodic-invariant-cells",
            "recurrence-vs-reach-symmetry",
            "recurrent-orbit-trace-continuity",
            "regional-approach-without-proximality",
            "regular-returns-tile-horizon",
            "syndetic-subgroup-normal-core",
            "syndetic-thick-duality",
            "uniform-modulus-gives-orbit-continuity")

    def test_unknown_check_rejected(self):
        with pytest.raises(UsageError):
            run_check({"check": "perpetual-motion"})


class TestDefaultBattery:
    def test_all_consistent(self):
        run = run_config(default_config())
        assert run.outcome == CONSISTENT
        assert len(run.reports) == 14
        assert all(r.outcome == CONSISTENT for r in run.reports)

    def test_asserted_hypotheses_are_flagged(self):
        run = run_config(default_config())
        flagged = [r for r in run.reports if r.asserted]
        assert len(flagged) == 1
        assert flagged[0].check_id == "recurrent-orbit-trace-continuity"
        assert flagged[0].asserted == ("totally-disconnected=false",)
        assert "Asserted hypotheses (not computed): " \
            "`totally-disconnected=false`" in run.render_markdown()

    def test_reports_carry_verdicts(self):
        run = run_config(default_config())
        for r in run.reports:
            assert r.verdicts, r.check_id
            assert r.claim


class TestNegativeControl:
    def test_false_assertions_surface_as_violations(self):
        run = run_config(negative_control())
        assert run.outcome == VIOLATION
        by_outcome = {}
        for r in run.reports:
            by_outcome.setdefault(r.outcome, []).append(r)
        assert len(by_outcome[VIOLATION]) == 2
        assert len(by_outcome[CONSISTENT]) == 1
        ids = {r.check_id for r in by_outcome[VIOLATION]}
        assert ids == {"recurrence-vs-reach-symmetry",
                       "recurrent-orbit-trace-continuity"}

    def test_violation_notes_name_the_assertion(self):
        run = run_config(negative_control())
        bad = [r for r in run.reports if r.outcome == VIOLATION]
        for r in bad:
            assert r.asserted
            assert any("assert" in n or "contradict" in n
                       for n in r.notes), r.notes


class TestEntryTypes:
    """List, map and name entries of a check are read with their JSON
    type checked, as the integer entries are."""

    @pytest.mark.parametrize("entry, message", [
        # a string was iterated letter by letter
        ({"check": "uniform-modulus-gives-orbit-continuity",
          "points": "one"}, "'points' must be a list of strings"),
        ({"check": "uniform-modulus-gives-orbit-continuity",
          "points": ["one", 0]}, "'points' must be a list of strings"),
        ({"check": "syndetic-subgroup-normal-core", "samples": "sym-3"},
         "'samples' must be a list of strings"),
        # a list escaped as a TypeError
        ({"check": "recurrence-vs-reach-symmetry", "asserted": [1]},
         "'asserted' must be a map from names to booleans"),
        # the string "true" was printed as asserted but never used
        ({"check": "recurrence-vs-reach-symmetry", "system": "full-shift",
          "asserted": {"pointwise-recurrent": "true"}},
         "'asserted' must be a map from names to booleans"),
        ({"check": "cone-returns-give-syndetic", "system": ["odometer"]},
         "'system' must be a string"),
        ({"check": "cone-returns-give-syndetic", "point": 0},
         "'point' must be a string"),
        ({"check": "one-way-reach-blocks-return", "source": None},
         "'source' must be a string"),
        ({"check": "one-way-reach-blocks-return", "target": ["zero"]},
         "'target' must be a string"),
        ({"check": "joint-returns-under-uniform-modulus", "point_x": 1},
         "'point_x' must be a string"),
        ({"check": "joint-returns-under-uniform-modulus",
          "point_y": {"name": "reflection"}}, "'point_y' must be a string"),
        # entry.get raised a bare AttributeError
        (1, "check entry must be a JSON object, got 1"),
        (["check"], r"check entry must be a JSON object, got \['check'\]"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_wrong_type_is_usage_error(self, entry, message):
        with pytest.raises(UsageError, match=message):
            run_check(entry)

    # a misspelled key ran the check at that key's default
    @pytest.mark.parametrize("entry, key", [
        ({"check": "cone-returns-give-syndetic", "horizn": 64}, "horizn"),
        ({"check": "cone-returns-give-syndetic", "sytem": "full-shift"},
         "sytem"),
        ({"check": "uniform-modulus-gives-orbit-continuity",
          "point": ["one"]}, "point"),
        ({"check": "recurrence-vs-reach-symmetry",
          "assertion": {"pointwise-recurrent": True}}, "assertion"),
        # asserted is a key only of the checks that read a hypothesis
        ({"check": "cone-returns-give-syndetic", "asserted": {}},
         "asserted"),
    ], ids=["int", "str", "names", "asserted", "asserted-elsewhere"])
    def test_undeclared_key_is_usage_error(self, entry, key):
        with pytest.raises(UsageError, match="%r: unknown key %r"
                           % (entry["check"], key)):
            run_check(entry)

    @pytest.mark.parametrize("cid, name", [
        ("recurrence-vs-reach-symmetry", "pointwise-recurent"),
        ("recurrence-vs-reach-symmetry", "totally-disconnected"),
        ("recurrent-orbit-trace-continuity", "pointwise-recurrent"),
    ])
    def test_undeclared_hypothesis_is_usage_error(self, cid, name):
        with pytest.raises(UsageError, match="unknown hypothesis %r" % name):
            run_check({"check": cid, "system": "full-shift",
                       "asserted": {name: True}})

    # a list or map check id raised TypeError: unhashable type
    @pytest.mark.parametrize("cid", [["x"], {"a": 1}, None, 3])
    def test_non_string_check_id_is_usage_error(self, cid):
        with pytest.raises(UsageError, match="unknown check"):
            run_check({"check": cid})

    def test_every_entry_binds_before_any_check_runs(self, monkeypatch):
        cid = "recurrence-vs-reach-symmetry"

        def refuse(**kwargs):
            raise AssertionError("ran a check")
        refuse.__wrapped__ = harness.CHECKS[cid]
        monkeypatch.setitem(harness.CHECKS, cid, refuse)
        config = default_config()
        assert config["checks"][0]["check"] == cid
        config["checks"].append({"check": "cone-returns-give-syndetic",
                                 "depht": 5})
        with pytest.raises(UsageError, match="unknown key 'depht'"):
            run_config(config)

    # the schema is read through a wrapper that sets __wrapped__, as a
    # tracing wrapper does
    def test_wrapped_check_binds_like_the_check(self, monkeypatch):
        check = harness.CHECKS["syndetic-thick-duality"]
        calls = []

        def traced(*args, **kwargs):
            calls.append(kwargs)
            return check(*args, **kwargs)
        traced.__wrapped__ = check
        monkeypatch.setitem(harness.CHECKS, "syndetic-thick-duality", traced)
        rep = run_check({"check": "syndetic-thick-duality", "window": 30})
        assert rep.outcome == CONSISTENT and calls == [{"window": 30}]
        with pytest.raises(UsageError, match="unknown key 'windw'"):
            run_check({"check": "syndetic-thick-duality", "windw": 30})


class TestSampleTags:
    """A finite group sample is sym-<n> or dihedral-<n>, n a plain
    decimal of order (n! or 2n) at most 120, checked before any group
    is built."""

    @pytest.fixture(autouse=True)
    def unbuilt(self, monkeypatch):
        def refuse(perms, label, *args, **kwargs):
            raise AssertionError("built %s" % label)
        monkeypatch.setattr(subgroups, "_group_from_perms", refuse)

    @pytest.mark.parametrize("tag", [
        "sym-x",        # a ValueError traceback from int()
        "sym-3.0",      # the same
        "dihedral-0",   # an IndexError
        "sym-07",       # ran as S7 (order 5040) for more than 20 s
        "sym-9",        # would build a table of about 10^11 entries
    ])
    def test_bad_tag_is_usage_error(self, tag):
        with pytest.raises(UsageError, match="'samples' must be sym-<n>"):
            run_check({"check": "syndetic-subgroup-normal-core",
                       "samples": [tag]})


class TestIndividualChecks:
    def test_one_way_reach(self):
        rep = run_check({"check": "one-way-reach-blocks-return",
                         "system": "full-shift", "source": "step",
                         "target": "zero", "horizon": 8, "depth": 2})
        assert rep.outcome == CONSISTENT
        names = [v.analyzer for v in rep.verdicts]
        assert "orbit-symmetry" in names
        assert "orbit-confinement" in names

    def test_cone_syndetic_on_odometer(self):
        rep = run_check({"check": "cone-returns-give-syndetic",
                         "system": "odometer", "point": "zero",
                         "horizon": 16, "depth": 3})
        assert rep.outcome == CONSISTENT
        by_name = {v.analyzer: v for v in rep.verdicts}
        assert by_name["cone-subnet-recurrence"].holds
        assert by_name["almost-periodic"].holds

    def test_joint_returns_on_thue_morse(self):
        rep = run_check({"check": "joint-returns-under-uniform-modulus",
                         "system": "thue-morse", "point_x": "reflection",
                         "point_y": "reflection-flipped", "horizon": 32,
                         "depth": 2})
        assert rep.outcome == CONSISTENT
        by_name = {v.analyzer: v for v in rep.verdicts}
        # the pair fails to recur jointly, matched by a failing modulus
        assert by_name["pair-recurrence"].fails
        assert by_name["equicontinuity"].fails

    def test_subgroup_survey(self):
        rep = run_check({"check": "syndetic-subgroup-normal-core",
                         "samples": ["sym-3", "dihedral-4"]})
        assert rep.outcome == CONSISTENT
        assert all(v.holds for v in rep.verdicts)

    # S3 has 6 subgroups: 6 tests pick out the normal ones once, and
    # each subgroup's core is tested twice (once as it is built); a
    # scan of every subgroup per subgroup made 48
    def test_subgroup_survey_tests_normality_once(self, monkeypatch):
        calls = []
        is_normal = subgroups.FiniteSubgroup.is_normal

        def counted(self):
            calls.append(self)
            return is_normal(self)
        monkeypatch.setattr(subgroups.FiniteSubgroup, "is_normal", counted)
        rep = run_check({"check": "syndetic-subgroup-normal-core",
                         "samples": ["sym-3"]})
        assert rep.outcome == CONSISTENT
        assert len(calls) == 18

    def test_duality_window(self):
        rep = run_check({"check": "syndetic-thick-duality", "window": 24})
        assert rep.outcome == CONSISTENT

    def test_periodic_cells(self):
        rep = run_check({"check": "pointwise-periodic-invariant-cells",
                         "system": "successor-map", "period_max": 8,
                         "depth": 3, "horizon": 6})
        assert rep.outcome == CONSISTENT

    def test_periodic_cells_inconclusive_when_capped(self):
        rep = run_check({"check": "pointwise-periodic-invariant-cells",
                         "system": "successor-map", "period_max": 2,
                         "depth": 3, "horizon": 6})
        assert rep.outcome == INCONCLUSIVE


class TestOutcomeRanking:
    def test_worst_outcome_wins(self):
        mk = lambda o: CheckReport("c", "s", "claim", o, (holds("a", {}, {}),))
        assert HarnessRun((mk(CONSISTENT), mk(CONSISTENT))).outcome \
            == CONSISTENT
        assert HarnessRun((mk(CONSISTENT), mk(INCONCLUSIVE))).outcome \
            == INCONCLUSIVE
        assert HarnessRun((mk(INCONCLUSIVE), mk(VIOLATION))).outcome \
            == VIOLATION


class TestRendering:
    def test_markdown_shape(self):
        run = run_config({"checks": [
            {"check": "syndetic-thick-duality", "window": 24}]})
        text = run.render_markdown()
        assert text.startswith("# Consistency run")
        assert "## syndetic-thick-duality @" in text
        assert "**CONSISTENT**" in text

    def test_json_round_trip(self):
        run = run_config({"checks": [
            {"check": "syndetic-thick-duality", "window": 24}]})
        data = run.to_json()
        json.dumps(data, sort_keys=True)
        assert data["outcome"] == CONSISTENT
        assert data["reports"][0]["check"] == "syndetic-thick-duality"

    def test_markdown_is_deterministic(self):
        a = run_config(default_config()).render_markdown()
        b = run_config(default_config()).render_markdown()
        assert a == b


class TestConfigHandling:
    def test_load_config_rejects_bad_schema(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text('{"schema": "other/9", "checks": [{}]}')
        with pytest.raises(UsageError, match="schema must be"):
            load_config(str(p))

    def test_load_config_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(UsageError):
            load_config(str(p))

    def test_shipped_configs_match_builders(self):
        on_disk = (CONFIGS / "default.json").read_text()
        expect = json.dumps(default_config(), indent=2, sort_keys=True) + "\n"
        assert on_disk == expect

    def test_validate_rejects_empty_checks(self):
        with pytest.raises(UsageError, match="checks"):
            run_config({"schema": "zerodim-verify/1", "checks": []})

    def test_run_config_needs_checks(self):
        with pytest.raises(UsageError):
            run_config({"checks": []})

    # config.get raised a bare AttributeError
    @pytest.mark.parametrize("config", [[1], "x", None],
                             ids=["list", "string", "null"])
    def test_run_config_needs_an_object(self, config):
        with pytest.raises(UsageError, match="config must be a JSON object"):
            run_config(config)

    def test_run_config_entries_are_objects(self):
        # entry.get raised a bare AttributeError
        with pytest.raises(UsageError, match="must be a JSON object"):
            run_config({"checks": [{"check": "syndetic-thick-duality"}, 1]})
