"""One priced design point: the ``repro cost`` / ``POST /v1/cost`` query.

:class:`CostRequest` is the typed form of the ``repro cost`` flags,
:func:`evaluate_cost` prices it into a :class:`CostResult`, and
:func:`cost_table` renders the result.  The CLI prints that table, and
the service (:mod:`repro.service`) parses JSON into the same request,
prices it with the same function on its warm engine, and its JSON
re-renders to the same table: CLI and HTTP outputs are parity by
construction (``tools/service_smoke.py`` holds the line).

The module sits in the campaign layer, below both interfaces, so a
cold ``repro cost`` loads neither the service nor the scenario layer.
At module scope it imports only leaves; the model, the registries and
the config are imported inside the functions that use them, and
:func:`resolve_die_cost_fn` imports :mod:`repro.config` only when an
override is named.

Codecs are strict: :meth:`from_dict` rejects unknown keys and coerces
field types with named errors (so a typo'd payload is a 400, not a
silently-defaulted evaluation), and ``to_dict()`` round-trips through
JSON exactly (floats serialize via ``repr``).  :meth:`canonical`
returns the :func:`repro.canon.stable_json` form: the response cache's
value key.  The field validators are shared with the service's other
schemas.
"""

from __future__ import annotations

import math
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

    def __post_init__(self) -> None:
        # Both interfaces build the request here: the CLI from its
        # flags, the service through from_dict (JSON allows NaN and
        # Infinity).  A NaN passes every ``<= 0`` check of the model.
        for key in ("area", "d2d_fraction", "quantity"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"cost request.{key} must be a finite number, got {value}"
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


def build_system(request: CostRequest) -> Any:
    """The :class:`repro.core.system.System` a cost request describes."""
    from repro.explore.partition import partition_monolith, soc_reference
    from repro.process.catalog import get_node
    from repro.registry.technologies import technology_registry

    node = get_node(request.node)
    if request.integration == "soc":
        return soc_reference(
            request.area, node, quantity=request.quantity
        )
    return partition_monolith(
        request.area,
        node,
        request.chiplets,
        technology_registry().create(request.integration),
        d2d_fraction=request.d2d_fraction,
        quantity=request.quantity,
    )


def resolve_die_cost_fn(request: CostRequest, context: str) -> Any:
    """The die pricing a request's ``yield_model`` / ``wafer_geometry``
    names select, resolved through the global registries by
    :meth:`repro.config.ConfigRegistries.die_cost_fn` (``None``: the
    engine's default pricing, returned before the config is imported).
    Unknown names raise :class:`~repro.errors.ConfigError`."""
    if not request.yield_model and not request.wafer_geometry:
        return None
    from repro.config import ConfigRegistries

    return ConfigRegistries().die_cost_fn(
        request.yield_model, request.wafer_geometry, context=context
    )


def evaluate_cost(request: CostRequest, engine: Any = None) -> CostResult:
    """Price one request; with ``engine`` the warm cached path (the
    service), without it the plain core-function path (the CLI).  Both
    are bit-identical by the engine's parity contract
    (``tests/test_engine.py``)."""
    from repro.core.total import compute_total_cost

    system = build_system(request)
    price_die = resolve_die_cost_fn(request, "cost")
    if engine is None:
        from repro.core.re_cost import compute_re_cost

        re = compute_re_cost(system, die_cost_fn=price_die)
    else:
        re = engine.evaluate_re(system, die_cost_fn=price_die)
    total = compute_total_cost(system, re_cost=re)
    return CostResult(
        system=system.name,
        re=re.as_dict(),
        re_total=re.total,
        nre=total.amortized_nre.as_dict(),
        nre_total=total.nre_total,
        total=total.total,
    )
