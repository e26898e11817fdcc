"""Typed request/response contract of the cost-model service.

Every endpoint of :mod:`repro.service.app` speaks one of these frozen
dataclasses: the HTTP layer parses JSON into a ``*Request``, the state
layer (:mod:`repro.service.state`) evaluates it into a ``*Result``, and
the same objects back the CLI — ``repro cost`` builds a
:class:`CostRequest` and prints :func:`cost_table`, so CLI and HTTP
outputs are parity-by-construction, not parity-by-test.

Codecs are strict: :meth:`from_dict` rejects unknown keys and coerces
field types with named errors (so a typo'd payload is a 400, not a
silently-defaulted evaluation), and ``to_dict()`` round-trips through
JSON exactly (floats serialize via ``repr``).  :meth:`canonical`
returns the :func:`repro.canon.stable_json` form — the response cache's
value key.

Scenario requests reuse the scenario document codec
(``repro.scenario.spec``) rather than invent a second spelling of that
payload; a design-space search is a scenario with one ``search`` study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.canon import stable_json
from repro.errors import InvalidParameterError
from repro.reporting.table import Table


def _require_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise InvalidParameterError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_keys(
    payload: Mapping[str, Any], allowed: frozenset[str], what: str
) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise InvalidParameterError(
            f"{what} has unknown field(s) {unknown} "
            f"(allowed: {sorted(allowed)})"
        )


def _number(payload: Mapping[str, Any], key: str, default: float,
            what: str) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"{what}.{key} must be a number, got {type(value).__name__}"
        )
    return float(value)


def _integer(payload: Mapping[str, Any], key: str, default: int,
             what: str) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(
            f"{what}.{key} must be an integer, got {type(value).__name__}"
        )
    return value


def _string(payload: Mapping[str, Any], key: str, default: str,
            what: str) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise InvalidParameterError(
            f"{what}.{key} must be a string, got {type(value).__name__}"
        )
    return value


# ----------------------------------------------------------------------
# POST /v1/cost
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostRequest:
    """One system to price — the typed form of the ``repro cost`` flags.

    Field defaults mirror the CLI defaults exactly, so an empty-ish
    payload and a bare ``repro cost --area N`` describe the same
    design point.
    """

    area: float
    node: str = "7nm"
    integration: str = "soc"
    chiplets: int = 2
    d2d_fraction: float = 0.10
    quantity: float = 500_000.0
    yield_model: str = ""
    wafer_geometry: str = ""

    _FIELDS = frozenset(
        {"area", "node", "integration", "chiplets", "d2d_fraction",
         "quantity", "yield_model", "wafer_geometry"}
    )

    @classmethod
    def from_dict(cls, payload: Any) -> "CostRequest":
        payload = _require_mapping(payload, "cost request")
        _check_keys(payload, cls._FIELDS, "cost request")
        if "area" not in payload:
            raise InvalidParameterError("cost request needs an 'area' field")
        return cls(
            area=_number(payload, "area", 0.0, "cost request"),
            node=_string(payload, "node", "7nm", "cost request"),
            integration=_string(payload, "integration", "soc", "cost request"),
            chiplets=_integer(payload, "chiplets", 2, "cost request"),
            d2d_fraction=_number(payload, "d2d_fraction", 0.10, "cost request"),
            quantity=_number(payload, "quantity", 500_000.0, "cost request"),
            yield_model=_string(payload, "yield_model", "", "cost request"),
            wafer_geometry=_string(
                payload, "wafer_geometry", "", "cost request"
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "area": self.area,
            "node": self.node,
            "integration": self.integration,
            "chiplets": self.chiplets,
            "d2d_fraction": self.d2d_fraction,
            "quantity": self.quantity,
            "yield_model": self.yield_model,
            "wafer_geometry": self.wafer_geometry,
        }

    def canonical(self) -> str:
        return stable_json(self.to_dict())


@dataclass(frozen=True)
class CostResult:
    """Itemized per-unit price of one system.

    ``re`` and ``nre`` hold the component breakdowns exactly as
    ``RECost.as_dict()`` / amortized ``NRECost.as_dict()`` produce them
    (insertion order is the component order the CLI table prints).
    """

    system: str
    re: Mapping[str, float]
    re_total: float
    nre: Mapping[str, float]
    nre_total: float
    total: float

    _FIELDS = frozenset(
        {"system", "re", "re_total", "nre", "nre_total", "total"}
    )

    @classmethod
    def from_dict(cls, payload: Any) -> "CostResult":
        payload = _require_mapping(payload, "cost result")
        _check_keys(payload, cls._FIELDS, "cost result")
        for key in sorted(cls._FIELDS):
            if key not in payload:
                raise InvalidParameterError(
                    f"cost result needs a {key!r} field"
                )
        re = _require_mapping(payload["re"], "cost result re breakdown")
        nre = _require_mapping(payload["nre"], "cost result nre breakdown")
        return cls(
            system=_string(payload, "system", "", "cost result"),
            re={str(k): float(v) for k, v in re.items()},
            re_total=_number(payload, "re_total", 0.0, "cost result"),
            nre={str(k): float(v) for k, v in nre.items()},
            nre_total=_number(payload, "nre_total", 0.0, "cost result"),
            total=_number(payload, "total", 0.0, "cost result"),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "re": dict(self.re),
            "re_total": self.re_total,
            "nre": dict(self.nre),
            "nre_total": self.nre_total,
            "total": self.total,
        }

    def canonical(self) -> str:
        return stable_json(self.to_dict())


def cost_table(result: CostResult) -> Table:
    """The ``repro cost`` output table for ``result``.

    This is THE rendering both interfaces use: the CLI prints it
    directly, and the service smoke test re-renders it from a JSON
    round-tripped :class:`CostResult` (floats survive JSON exactly) to
    hold HTTP responses byte-identical to CLI output.
    """
    table = Table(
        ["component", "USD per unit"], title=f"Cost of {result.system}"
    )
    for name, value in result.re.items():
        table.add_row([f"RE {name}", value])
    table.add_row(["RE total", result.re_total])
    for name, value in result.nre.items():
        table.add_row([f"NRE {name} (amortized)", value])
    table.add_row(["total per unit", result.total])
    return table


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
