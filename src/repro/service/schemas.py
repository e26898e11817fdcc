"""Typed request/response contract of the cost-model service.

Every endpoint of :mod:`repro.service.app` speaks one of these frozen
dataclasses: the HTTP layer parses JSON into a ``*Request``, the state
layer (:mod:`repro.service.state`) evaluates it into a ``*Result``.
The cost query's contract (:class:`CostRequest`, :class:`CostResult`,
:func:`cost_table`) lives in :mod:`repro.explore.costquery`, below
both interfaces, so ``repro cost`` prints the same table without
loading the service; this module re-exports it.

Codecs are strict: :meth:`from_dict` rejects unknown keys and coerces
field types with named errors (so a typo'd payload is a 400, not a
silently-defaulted evaluation), and ``to_dict()`` round-trips through
JSON exactly.  :meth:`canonical` returns the
:func:`repro.canon.stable_json` form — the response cache's value key.

Scenario requests reuse the scenario document codec
(``repro.scenario.spec``) rather than invent a second spelling of that
payload; a design-space search is a scenario with one ``search`` study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.canon import stable_json
from repro.errors import InvalidParameterError
from repro.explore.costquery import (
    CostRequest,
    CostResult,
    _check_keys,
    _require_mapping,
    _string,
    cost_table,
)


# ----------------------------------------------------------------------
# POST /v1/scenario
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRequest:
    """A declarative scenario document to execute.

    ``scenario`` is the same JSON document ``repro run`` loads from
    disk, parsed through :func:`repro.scenario.spec.scenario_from_dict`
    at construction so malformed documents fail at the schema boundary
    (HTTP 400), not mid-run.  ``studies`` optionally restricts the run
    to the named studies, like the CLI's repeatable ``--study`` flag.
    """

    spec: Any  # ScenarioSpec; typed loosely to keep this module light
    studies: tuple[str, ...] = ()

    _FIELDS = frozenset({"scenario", "studies"})

    @classmethod
    def from_dict(cls, payload: Any) -> "ScenarioRequest":
        from repro.scenario.spec import scenario_from_dict

        payload = _require_mapping(payload, "scenario request")
        _check_keys(payload, cls._FIELDS, "scenario request")
        if "scenario" not in payload:
            raise InvalidParameterError(
                "scenario request needs a 'scenario' document field"
            )
        document = _require_mapping(
            payload["scenario"], "scenario request document"
        )
        studies = payload.get("studies", ())
        if isinstance(studies, str) or not all(
            isinstance(name, str) for name in studies
        ):
            raise InvalidParameterError(
                "scenario request 'studies' must be a list of study names"
            )
        return cls(
            spec=scenario_from_dict(document), studies=tuple(studies)
        )

    def to_dict(self) -> dict[str, Any]:
        from repro.scenario.spec import scenario_to_dict

        payload: dict[str, Any] = {"scenario": scenario_to_dict(self.spec)}
        if self.studies:
            payload["studies"] = list(self.studies)
        return payload

    def canonical(self) -> str:
        return stable_json(self.to_dict())

    def selected_spec(self) -> Any:
        """The spec restricted to ``studies`` (unchanged when empty),
        with unknown names rejected exactly like ``repro run --study``.
        """
        import dataclasses

        if not self.studies:
            return self.spec
        chosen = tuple(
            study for study in self.spec.studies if study.name in self.studies
        )
        missing = set(self.studies) - {study.name for study in chosen}
        if missing:
            raise InvalidParameterError(
                f"scenario {self.spec.name!r} has no studies "
                f"{sorted(missing)} (available: "
                f"{[study.name for study in self.spec.studies]})"
            )
        return dataclasses.replace(self.spec, studies=chosen)


@dataclass(frozen=True)
class StudySummary:
    """One executed study: the JSON-ready face of
    :class:`repro.scenario.runner.StudyResult` (text + sink rows; the
    in-memory ``data`` payload does not cross the wire)."""

    name: str
    kind: str
    text: str
    rows: tuple[Mapping[str, Any], ...] = ()

    _FIELDS = frozenset({"name", "kind", "text", "rows"})

    @classmethod
    def from_dict(cls, payload: Any) -> "StudySummary":
        payload = _require_mapping(payload, "study summary")
        _check_keys(payload, cls._FIELDS, "study summary")
        return cls(
            name=_string(payload, "name", "", "study summary"),
            kind=_string(payload, "kind", "", "study summary"),
            text=_string(payload, "text", "", "study summary"),
            rows=tuple(
                dict(_require_mapping(row, "study summary row"))
                for row in payload.get("rows", ())
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "text": self.text,
            "rows": [dict(row) for row in self.rows],
        }


@dataclass(frozen=True)
class ScenarioRunResult:
    """All study results of one scenario run, in execution order."""

    scenario: str
    description: str = ""
    studies: tuple[StudySummary, ...] = ()

    _FIELDS = frozenset({"scenario", "description", "studies"})

    @classmethod
    def from_dict(cls, payload: Any) -> "ScenarioRunResult":
        payload = _require_mapping(payload, "scenario result")
        _check_keys(payload, cls._FIELDS, "scenario result")
        return cls(
            scenario=_string(payload, "scenario", "", "scenario result"),
            description=_string(
                payload, "description", "", "scenario result"
            ),
            studies=tuple(
                StudySummary.from_dict(study)
                for study in payload.get("studies", ())
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "studies": [study.to_dict() for study in self.studies],
        }

    def canonical(self) -> str:
        return stable_json(self.to_dict())

    def render(self) -> str:
        """The study blocks exactly as ``ScenarioResult.render()`` (and
        hence ``repro run``) prints them."""
        return "\n\n".join(
            f"=== {study.name} ===\n{study.text}" for study in self.studies
        )


__all__ = [
    "CostRequest",
    "CostResult",
    "ScenarioRequest",
    "ScenarioRunResult",
    "StudySummary",
    "cost_table",
]
