"""Run configurations for the consistency harness and the CLI.

A config is a plain JSON object: a schema tag and a list of check
entries.  ``default_config`` pins the standard battery.
"""

from __future__ import annotations

import json

from .errors import UsageError

SCHEMA = "zerodim-verify/1"


def default_config() -> dict:
    """The standard battery: fourteen checks across the bundled
    systems, all expected CONSISTENT."""
    return {
        "schema": SCHEMA,
        "checks": [
            {"check": "recurrence-vs-reach-symmetry", "system": "odometer",
             "horizon": 8, "depth": 2},
            {"check": "recurrence-vs-reach-symmetry", "system": "full-shift",
             "horizon": 8, "depth": 2},
            {"check": "one-way-reach-blocks-return", "system": "full-shift",
             "source": "step", "target": "zero", "horizon": 8, "depth": 2},
            {"check": "cone-returns-give-syndetic", "system": "odometer",
             "point": "zero", "horizon": 8, "depth": 2},
            {"check": "joint-returns-under-uniform-modulus",
             "system": "thue-morse", "point_x": "reflection",
             "point_y": "reflection-flipped", "horizon": 32, "depth": 2},
            {"check": "recurrent-orbit-trace-continuity",
             "system": "circle-stack", "point": "limit", "horizon": 8,
             "depth": 3, "neighbor_depth_max": 4,
             "asserted": {"totally-disconnected": False}},
            {"check": "uniform-modulus-gives-orbit-continuity",
             "system": "odometer", "points": ["one", "zero"], "horizon": 8,
             "depth": 2, "neighbor_depth_max": 4},
            {"check": "regular-returns-tile-horizon", "system": "odometer",
             "point": "zero", "horizon": 8, "depth": 2, "cover_cap": 16},
            {"check": "regular-returns-tile-horizon", "system": "full-shift",
             "point": "alternating", "horizon": 8, "depth": 2,
             "cover_cap": 16},
            {"check": "pointwise-periodic-invariant-cells",
             "system": "successor-map", "period_max": 8, "depth": 3,
             "horizon": 6},
            {"check": "regional-approach-without-proximality",
             "system": "two-copy", "depth": 3, "horizon": 3},
            {"check": "regional-approach-without-proximality",
             "system": "mcmahon", "depth": 3, "horizon": 3},
            {"check": "syndetic-subgroup-normal-core",
             "samples": ["sym-3", "dihedral-4"]},
            {"check": "syndetic-thick-duality", "window": 24},
        ],
    }


def load_config(path: str) -> dict:
    """The config in a JSON file, once its schema tag is checked;
    ``run_config`` checks the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError("config %s is not valid JSON: %s" % (path, exc))
    if isinstance(data, dict) and data.get("schema") != SCHEMA:
        raise UsageError("config schema must be %r, got %r"
                         % (SCHEMA, data.get("schema")))
    return data
