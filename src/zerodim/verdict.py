"""Three-valued verdicts with replayable certificates.

Finite-horizon analyzers never answer a bare yes/no.  They answer
HOLDS / FAILS / INCONCLUSIVE together with a certificate: the witness
data needed to re-check the claim without re-running the search.
Certificates are plain JSON-able dictionaries and must not depend on
execution order or wall time.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Verdict:
    """Outcome of one finite-horizon analysis.

    Parameters echo the inputs that fix the search space (depth, horizon,
    probe radii) so the certificate can be replayed against them.
    """

    analyzer: str
    status: Status
    params: Mapping[str, Any] = field(default_factory=dict)
    certificate: Mapping[str, Any] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.status is Status.INCONCLUSIVE

    def to_json(self) -> dict:
        return {
            "analyzer": self.analyzer,
            "status": self.status.value,
            "params": _plain(self.params),
            "certificate": _plain(self.certificate),
        }

    def render(self) -> str:
        """One-line human readable summary."""
        return "%s: %s %s" % (
            self.analyzer,
            self.status.value.upper(),
            json.dumps(_plain(self.certificate), sort_keys=True),
        )


def holds(analyzer: str, params: Mapping, certificate: Mapping) -> Verdict:
    return Verdict(analyzer, Status.HOLDS, dict(params), dict(certificate))


def fails(analyzer: str, params: Mapping, certificate: Mapping) -> Verdict:
    return Verdict(analyzer, Status.FAILS, dict(params), dict(certificate))


def inconclusive(analyzer: str, params: Mapping, certificate: Mapping) -> Verdict:
    return Verdict(analyzer, Status.INCONCLUSIVE, dict(params), dict(certificate))


_LEAVES = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    """Recursively convert to JSON-serializable plain data.

    Fractions become strings "p/q" to stay exact; sets are sorted.
    Exact leaf types and exact dicts, most of what a certificate holds,
    are answered before the ``isinstance`` chain.
    """
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is dict:
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Verdict):
        return value.to_json()
    if isinstance(value, Status):
        return value.value
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted((_plain(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
