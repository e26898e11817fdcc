"""Integration-technology registry.

One place answering "what integration technologies exist and how do I
get one with *these* parameters?".  Each entry wraps a builder (the
factories in ``repro.packaging``) plus its default parameter set, so
call sites construct technologies by name instead of importing the
factory functions — and user code (or a JSON document) can register
parameterized *variants*::

    registry = technology_registry()
    tech = registry.create("2.5d", chip_attach_yield=0.95)

    register_technology("hv-interposer",
                        {"base": "2.5d", "params": {"chip_attach_yield": 0.95}})
    registry.create("hv-interposer")

Declarative specs (``technology_from_spec``) and their inverse
(``technology_to_spec``) are the config-schema-v2 / scenario wire
format for technologies.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import RegistryError
from repro.packaging.assembly import AssemblyFlow
from repro.packaging.base import IntegrationTech
from repro.registry.core import Registry, singleton

_FLOW_NAMES = {
    "chip-last": AssemblyFlow.CHIP_LAST,
    "chip_last": AssemblyFlow.CHIP_LAST,
    "chip-first": AssemblyFlow.CHIP_FIRST,
    "chip_first": AssemblyFlow.CHIP_FIRST,
}


def parse_flow(value: "str | AssemblyFlow") -> AssemblyFlow:
    """Accept an :class:`AssemblyFlow` or its JSON spelling."""
    if isinstance(value, AssemblyFlow):
        return value
    try:
        return _FLOW_NAMES[str(value).lower()]
    except KeyError:
        raise RegistryError(
            f"unknown assembly flow {value!r}",
            available=sorted({name for name in _FLOW_NAMES}),
        ) from None


@dataclass(frozen=True)
class TechnologyEntry:
    """One registered integration technology (or variant).

    Attributes:
        name: Registry key ("mcm", "2.5d", a variant name, ...).
        label: Human-facing label of built instances.
        builder: Factory accepting keyword parameter overrides.
        defaults: The builder's default parameter set (informational;
            shown by ``chiplet-actuary techs``).
        base: Name of the builtin this entry derives from (itself for
            builtins).
        params: Parameter overrides a variant bakes in.
        extra_keys: Non-default keyword parameters the builder accepts
            beyond ``defaults`` ("flow", "active").
        description: One-line description for listings.
    """

    name: str
    label: str
    builder: Callable[..., IntegrationTech]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    base: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    extra_keys: tuple[str, ...] = ()
    description: str = ""

    def create(self, **overrides: Any) -> IntegrationTech:
        """A fresh instance with the entry's params plus ``overrides``.

        Unknown parameter names are rejected — the packaging factories
        take ``**overrides`` and would silently ignore a typo'd key,
        pricing the study with default parameters.
        """
        merged = dict(self.params)
        merged.update(overrides)
        unknown = sorted(set(merged) - set(self.defaults) - set(self.extra_keys))
        if unknown:
            raise RegistryError(
                f"technology {self.name!r}: unknown parameters {unknown}",
                available=sorted(set(self.defaults) | set(self.extra_keys)),
            )
        if "flow" in merged:
            merged["flow"] = parse_flow(merged["flow"])
        return self.builder(**merged)


class TechnologyRegistry(Registry[TechnologyEntry]):
    """Registry of :class:`TechnologyEntry` objects."""

    def __init__(
        self,
        kind: str = "integration technology",
        parent: "TechnologyRegistry | None" = None,
    ):
        super().__init__(kind=kind, parent=parent)

    def create(self, name: str, **overrides: Any) -> IntegrationTech:
        """A fresh instance of technology ``name`` with overrides applied."""
        return self.get(name).create(**overrides)

    def register_spec(
        self, name: str, spec: Mapping[str, Any], overwrite: bool = False
    ) -> TechnologyEntry:
        """Register a declarative variant (see :func:`technology_from_spec`)."""
        base_name, params = _parse_spec(spec, context=name)
        base = self.get(base_name)
        entry = TechnologyEntry(
            name=name,
            label=base.label,
            builder=base.builder,
            defaults=base.defaults,
            base=base.base or base_name,
            params={**base.params, **params},
            extra_keys=base.extra_keys,
            description=str(spec.get("description", ""))
            or f"{base.label} variant",
        )
        entry.create()  # validate the baked-in params eagerly
        return self.register(name, entry, overwrite=overwrite)


def _parse_spec(
    spec: Mapping[str, Any], context: str
) -> tuple[str, dict[str, Any]]:
    if not isinstance(spec, Mapping):
        raise RegistryError(
            f"technology spec {context!r} must be a mapping, got {type(spec).__name__}"
        )
    payload = dict(spec)
    payload.pop("description", None)
    base = payload.pop("base", None)
    if base is None:
        raise RegistryError(f"technology spec {context!r} needs a 'base' technology")
    params = dict(payload.pop("params", {}))
    # Remaining top-level keys are treated as parameters too (flat form).
    params.update(payload)
    return str(base), params


def technology_from_spec(
    spec: Mapping[str, Any],
    registry: TechnologyRegistry | None = None,
    name: str = "",
) -> IntegrationTech:
    """Build one technology instance from a declarative spec."""
    base, params = _parse_spec(spec, context=name or "<anonymous>")
    return (registry or technology_registry()).create(base, **params)


def _builtin(module: str, factory: str) -> Callable[..., IntegrationTech]:
    """Builder for ``repro.packaging.<module>.<factory>`` that imports
    the module on its first call, so naming one technology loads only
    its own packaging module."""

    def build(**params: Any) -> IntegrationTech:
        home = importlib.import_module(f"repro.packaging.{module}")
        return getattr(home, factory)(**params)

    return build


@singleton
def technology_registry() -> TechnologyRegistry:
    """The process-wide technology registry with the paper's builtins."""
    from repro.data.packaging_costs import PACKAGING_DEFAULTS, STACK3D_DEFAULTS

    registry = TechnologyRegistry()
    builtins = (
        ("soc", "SoC", _builtin("soc", "soc_package"),
         PACKAGING_DEFAULTS["soc"], (),
         "single-die flip-chip package"),
        ("mcm", "MCM", _builtin("mcm", "mcm"), PACKAGING_DEFAULTS["mcm"], (),
         "multi-chip module on an organic substrate"),
        ("info", "InFO", _builtin("info", "info"), PACKAGING_DEFAULTS["info"],
         ("flow",),
         "integrated fan-out on an RDL carrier"),
        ("2.5d", "2.5D", _builtin("interposer", "interposer_25d"),
         PACKAGING_DEFAULTS["interposer"], ("flow", "active"),
         "chips on a silicon interposer (CoWoS-class)"),
        ("3d", "3D", _builtin("stacked3d", "stacked_3d"), STACK3D_DEFAULTS, (),
         "face-to-face 3D stack on a substrate"),
    )
    for name, label, builder, defaults, extra_keys, description in builtins:
        registry.register(
            name,
            TechnologyEntry(
                name=name,
                label=label,
                builder=builder,
                defaults=defaults,
                base=name,
                extra_keys=extra_keys,
                description=description,
            ),
        )
    return registry


def register_technology(
    name: str,
    spec: "Mapping[str, Any] | TechnologyEntry",
    overwrite: bool = False,
) -> TechnologyEntry:
    """Register a custom technology variant (spec or entry) globally."""
    registry = technology_registry()
    if isinstance(spec, TechnologyEntry):
        return registry.register(name, spec, overwrite=overwrite)
    return registry.register_spec(name, spec, overwrite=overwrite)


# ----------------------------------------------------------------------
# serialization (config schema v2)
# ----------------------------------------------------------------------

def _substrate_layers(tech: Any) -> int:
    return tech.substrate.layers


@functools.cache
def _builtin_classes() -> tuple[type, ...]:
    """The builtin technology classes, imported on first use."""
    from repro.packaging.info import InFO
    from repro.packaging.interposer import Interposer25D
    from repro.packaging.mcm import MCM
    from repro.packaging.soc import SoCPackage
    from repro.packaging.stacked3d import Stacked3D

    return SoCPackage, MCM, InFO, Interposer25D, Stacked3D


def _spec_params(tech: IntegrationTech) -> dict[str, Any]:
    """Factory-parameter dict reconstructing ``tech`` via its builder."""
    SoCPackage, MCM, InFO, Interposer25D, Stacked3D = _builtin_classes()
    if isinstance(tech, (SoCPackage, MCM)):
        return {
            "substrate_layers": _substrate_layers(tech),
            "substrate_area_factor": tech.substrate_area_factor,
            "fixed_assembly_cost": tech.fixed_assembly_cost,
            "chip_attach_yield": tech.chip_attach_yield,
            "final_yield": tech.final_yield,
            "nre_per_mm2": tech.nre_per_mm2,
            "nre_fixed": tech.nre_fixed,
        }
    if isinstance(tech, (InFO, Interposer25D)):
        from repro.process.catalog import NODES

        if isinstance(tech, InFO):
            carrier, factor_key = tech.rdl_node, "rdl_area_factor"
            expected, factor = "rdl", tech.rdl_area_factor
        else:
            carrier, factor_key = tech.interposer_node, "interposer_area_factor"
            expected, factor = "si", tech.interposer_area_factor
        if NODES.get(carrier.name) != carrier or carrier.name != expected:
            raise RegistryError(
                f"technology {tech.name!r} with a customized carrier node "
                f"({carrier.name!r}) is not serializable; register the "
                "carrier as a catalog node first"
            )
        params = {
            factor_key: factor,
            "substrate_layers": _substrate_layers(tech),
            "substrate_area_factor": tech.substrate_area_factor,
            "fixed_assembly_cost": tech.fixed_assembly_cost,
            "chip_attach_yield": tech.chip_attach_yield,
            "carrier_attach_yield": tech.carrier_attach_yield,
            "nre_per_mm2": tech.nre_per_mm2,
            "nre_fixed": tech.nre_fixed,
        }
        if tech.flow is not AssemblyFlow.CHIP_LAST:
            params["flow"] = tech.flow.value
        return params
    if isinstance(tech, Stacked3D):
        return {
            "substrate_layers": _substrate_layers(tech),
            "substrate_area_factor": tech.substrate_area_factor,
            "fixed_assembly_cost": tech.fixed_assembly_cost,
            "tsv_cost_per_mm2": tech.tsv_cost_per_mm2,
            "stack_bond_yield": tech.stack_bond_yield,
            "final_yield": tech.final_yield,
            "nre_per_mm2": tech.nre_per_mm2,
            "nre_fixed": tech.nre_fixed,
        }
    raise RegistryError(
        f"technology {type(tech).__name__} is not serializable "
        "(no declarative spec form)"
    )


def technology_to_spec(tech: IntegrationTech) -> dict[str, Any]:
    """Declarative ``{"base": ..., "params": {...}}`` spec for ``tech``.

    Parameters equal to the base technology's defaults are omitted, so
    a default-built technology yields an empty ``params`` dict (which
    config v1 represents as a bare name).
    """
    entry = technology_registry().get(tech.name)
    params = _spec_params(tech)
    defaults = dict(entry.defaults)
    trimmed = {
        key: value
        for key, value in params.items()
        if key == "flow" or defaults.get(key) != value
    }
    return {"base": tech.name, "params": trimmed}
