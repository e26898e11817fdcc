"""Yield-model registry: the classical die-yield families by name.

Entries are *families*, not bound instances: a registered model knows
which :mod:`repro.yieldmodel` class it builds and which
parameters it bakes in; parameters it leaves open (defect density,
clustering) are bound from the :class:`~repro.process.node.ProcessNode`
at pricing time via :meth:`YieldModelEntry.for_node`.  That keeps the
paper's convention — the node carries D0 and c — while letting config
schema v2 and scenario documents select or parameterize a model
declaratively::

    {"model": "poisson"}                          # node-bound Poisson
    {"model": "negative-binomial",
     "cluster_param": 4.0}                        # override clustering
    {"model": "murphy", "gross_factor": 0.95}     # with systematic loss

The global registry is seeded with every built-in family; scoped child
layers let one document shadow or extend them without touching
process-wide state, exactly like nodes / technologies / D2D profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import RegistryError
from repro.process.node import ProcessNode
from repro.registry.core import Registry, singleton
from repro.yieldmodel.alternatives import (
    BoseEinsteinYield,
    ExponentialYield,
    GrossYield,
    MurphyYield,
    PoissonYield,
)
from repro.yieldmodel.models import NegativeBinomialYield, YieldModel

#: model kind -> (class, parameters bindable from the node).
_MODEL_FAMILIES: dict[str, tuple[type, tuple[str, ...]]] = {
    "negative-binomial": (
        NegativeBinomialYield, ("defect_density", "cluster_param")
    ),
    "seeds": (NegativeBinomialYield, ("defect_density", "cluster_param")),
    "poisson": (PoissonYield, ("defect_density",)),
    "murphy": (MurphyYield, ("defect_density",)),
    "exponential": (ExponentialYield, ("defect_density",)),
    "bose-einstein": (BoseEinsteinYield, ("defect_density",)),
}

#: Constructor fields each family accepts in a spec.
_MODEL_PARAMS: dict[str, tuple[str, ...]] = {
    "negative-binomial": ("defect_density", "cluster_param"),
    "seeds": ("defect_density", "cluster_param"),
    "poisson": ("defect_density",),
    "murphy": ("defect_density",),
    "exponential": ("defect_density",),
    "bose-einstein": ("defect_density", "critical_layers"),
}


@dataclass(frozen=True)
class YieldModelEntry:
    """One registered yield-model family (possibly parameterized).

    Attributes:
        name: Registry key.
        model: Family kind (key of the built-in model classes).
        params: Constructor parameters baked into the entry; families
            leave ``defect_density`` (and ``cluster_param`` for the
            negative binomial) open to bind from the node.
        gross_factor: Optional systematic-yield wrapper
            (:class:`~repro.yieldmodel.alternatives.GrossYield`); 1.0 = none.
        description: One-line description for listings.
    """

    name: str
    model: str
    params: Mapping[str, Any] = field(default_factory=dict)
    gross_factor: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.model not in _MODEL_FAMILIES:
            raise RegistryError(
                f"yield model {self.name!r}: unknown family {self.model!r}",
                available=sorted(_MODEL_FAMILIES),
            )
        unknown = sorted(set(self.params) - set(_MODEL_PARAMS[self.model]))
        if unknown:
            raise RegistryError(
                f"yield model {self.name!r}: unknown parameters {unknown}",
                available=sorted(_MODEL_PARAMS[self.model]),
            )

    def for_node(self, node: ProcessNode) -> YieldModel:
        """A bound model: entry params, node defaults for the rest."""
        cls, node_bindable = _MODEL_FAMILIES[self.model]
        payload = dict(self.params)
        for parameter in node_bindable:
            payload.setdefault(parameter, getattr(node, parameter))
        model: YieldModel = cls(**payload)
        if self.gross_factor != 1.0:
            model = GrossYield(base=model, gross_factor=self.gross_factor)
        return model


class YieldModelRegistry(Registry[YieldModelEntry]):
    """Registry of :class:`YieldModelEntry` families."""

    def __init__(
        self, kind: str = "yield model", parent: "YieldModelRegistry | None" = None
    ):
        super().__init__(kind=kind, parent=parent)

    def register_spec(
        self, name: str, spec: Mapping[str, Any], overwrite: bool = False
    ) -> YieldModelEntry:
        """Build an entry from a declarative spec and register it."""
        return self.register(
            name, yield_model_from_spec(spec, name=name), overwrite=overwrite
        )


def yield_model_from_spec(
    spec: Mapping[str, Any], name: str | None = None
) -> YieldModelEntry:
    """Build a :class:`YieldModelEntry` from a declarative spec.

    ``spec`` carries a ``model`` family plus optional flat constructor
    parameters, ``gross_factor`` and ``description`` (module docstring
    shows the shapes).
    """
    if not isinstance(spec, Mapping):
        raise RegistryError(
            f"yield-model spec must be a mapping, got {type(spec).__name__}"
        )
    payload = dict(spec)
    model = payload.pop("model", None)
    if model is None:
        raise RegistryError(
            f"yield-model spec {name!r} needs a 'model' family",
            available=sorted(_MODEL_FAMILIES),
        )
    entry_name = payload.pop("name", name)
    if entry_name is None:
        raise RegistryError("yield-model spec needs a name")
    return YieldModelEntry(
        name=str(entry_name),
        model=str(model),
        params=dict(payload.pop("params", {})) | {
            key: value
            for key, value in payload.items()
            if key not in ("gross_factor", "description")
        },
        gross_factor=float(payload.get("gross_factor", 1.0)),
        description=str(payload.get("description", "")),
    )


def yield_model_to_spec(entry: YieldModelEntry) -> dict[str, Any]:
    """JSON-ready spec reconstructing ``entry`` exactly."""
    payload: dict[str, Any] = {"model": entry.model, **dict(entry.params)}
    if entry.gross_factor != 1.0:
        payload["gross_factor"] = entry.gross_factor
    if entry.description:
        payload["description"] = entry.description
    return payload


@singleton
def yield_model_registry() -> YieldModelRegistry:
    """The process-wide registry, seeded with every built-in family."""
    registry = YieldModelRegistry()
    descriptions = {
        "negative-binomial": "Eq. (1): the paper's default (node D0, c)",
        "seeds": "alias of the negative binomial (Seed's form)",
        "poisson": "Y = exp(-D*S); the c -> inf limit",
        "murphy": "Murphy's model ((1 - e^-DS) / DS)^2",
        "exponential": "Seeds' exponential, the c = 1 case",
        "bose-einstein": "(1 + D*S)^-n for n critical layers",
    }
    for name in _MODEL_FAMILIES:
        registry.register(
            name,
            YieldModelEntry(
                name=name, model=name, description=descriptions[name]
            ),
        )
    return registry


def register_yield_model(
    name: str,
    entry: "YieldModelEntry | Mapping[str, Any]",
    overwrite: bool = False,
) -> YieldModelEntry:
    """Register a custom yield model (entry or spec) globally."""
    registry = yield_model_registry()
    if isinstance(entry, YieldModelEntry):
        return registry.register(name, entry, overwrite=overwrite)
    return registry.register_spec(name, entry, overwrite=overwrite)
