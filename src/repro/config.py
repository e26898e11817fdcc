"""JSON round-trip for systems and portfolios (config schema v1/v2).

Serialization preserves *sharing*: modules, chips and package designs
are written once into top-level pools and referenced by id, so a
deserialized portfolio amortizes NRE exactly like the original.

Format (version 2)::

    {
      "version": 2,
      "nodes":        {"7nm-hd": {"base": "7nm", "defect_density": 0.2}},
      "technologies": {"2.5d@0": {"base": "2.5d",
                                   "params": {"chip_attach_yield": 0.95}}},
      "d2d_interfaces": {"fat-phy": {"base": "parallel-interposer",
                                      "bandwidth_density": 900.0}},
      "modules":  {"m0": {"name": ..., "area": ..., "node": "7nm-hd",
                           "scalable_fraction": 1.0}},
      "chips":    {"c0": {"name": ..., "modules": ["m0", "m0"],
                           "node": "7nm-hd", "d2d_fraction": 0.1}},
      "packages": {"p0": {"name": ..., "integration": "2.5d@0",
                           "socket_areas": [222.2, 222.2]}},
      "systems":  [{"name": ..., "chips": ["c0", "c0"],
                     "integration": "2.5d@0", "quantity": 500000.0,
                     "package": "p0"}]
    }

``nodes`` / ``technologies`` / ``d2d_interfaces`` — and the optional
``yield_models`` / ``wafer_geometries`` sections — are declarative
registry specs (``repro.registry``): custom-parameter nodes,
parameterized integration technologies, yield-model families and wafer
formats are config data, not code.  Every non-figure scenario study
kind and the CLI consume the last two by name, resolved through
:meth:`ConfigRegistries.die_cost_fn`.
Chips may carry a bandwidth-derived D2D policy as
``"d2d": {"policy": "bandwidth", "bandwidth_gbps": ..., "interface":
<name>}`` instead of ``d2d_fraction``.

Version-1 documents (catalog nodes and default-parameter technologies
only) load unchanged; the writer emits version 1 whenever the portfolio
needs nothing beyond v1, so old readers keep working.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.package_design import PackageDesign
from repro.core.system import System
from repro.d2d.interface import D2DInterface
from repro.d2d.overhead import NO_OVERHEAD, BandwidthOverhead, FractionOverhead
from repro.errors import ChipletActuaryError, ConfigError, RegistryError
from repro.packaging.base import IntegrationTech
from repro.process.catalog import NODES
from repro.process.node import ProcessNode
from repro.registry.d2d import D2DRegistry, d2d_registry, d2d_to_spec
from repro.registry.geometries import (
    WaferGeometryRegistry,
    wafer_geometry_registry,
)
from repro.registry.nodes import NodeRegistry, node_registry, node_to_spec
from repro.registry.technologies import (
    TechnologyRegistry,
    technology_registry,
    technology_to_spec,
)
from repro.registry.yieldmodels import (
    YieldModelRegistry,
    yield_model_registry,
)
from repro.reuse.portfolio import Portfolio

FORMAT_VERSION = 2

#: Versions ``portfolio_from_dict`` accepts.
SUPPORTED_VERSIONS = (1, 2)

#: Builtin integration names a version-1 document may reference.
V1_INTEGRATIONS = ("soc", "mcm", "info", "2.5d")


class ConfigRegistries:
    """The scoped registry layers one document resolves names through."""

    def __init__(
        self,
        nodes: NodeRegistry | None = None,
        technologies: TechnologyRegistry | None = None,
        d2d: D2DRegistry | None = None,
        yield_models: YieldModelRegistry | None = None,
        geometries: WaferGeometryRegistry | None = None,
    ):
        self.nodes = nodes if nodes is not None else node_registry().child()
        self.technologies = (
            technologies if technologies is not None else technology_registry().child()
        )
        self.d2d = d2d if d2d is not None else d2d_registry().child()
        self.yield_models = (
            yield_models
            if yield_models is not None
            else yield_model_registry().child()
        )
        self.geometries = (
            geometries
            if geometries is not None
            else wafer_geometry_registry().child()
        )

    def die_cost_fn(
        self,
        yield_model: str = "",
        wafer_geometry: str = "",
        context: str = "",
    ):
        """Die pricing honoring named yield-model / wafer-geometry entries.

        The single resolution point every consumer threads registry
        names through — partition, systems, Monte-Carlo, Pareto,
        sensitivity and reuse studies, plus the CLI — so "accepts a
        ``yield_model`` / ``wafer_geometry`` name" means the same thing
        everywhere.  Returns ``None`` when both names are empty (the
        caller keeps its default pricing), else a ``(node, area) -> DieCost``
        closure over the memoized die-cost layer.  Unknown names raise
        :class:`~repro.errors.ConfigError` listing the available
        entries, prefixed with ``context`` (typically the study name).
        """
        if not yield_model and not wafer_geometry:
            return None
        from repro.wafer.die import DieSpec
        from repro.wafer.diecache import cached_die_cost

        try:
            entry = (
                self.yield_models.get(yield_model) if yield_model else None
            )
            geometry = (
                self.geometries.get(wafer_geometry) if wafer_geometry else None
            )
        except RegistryError as error:
            message = f"{context}: {error}" if context else str(error)
            raise ConfigError(message) from None

        # One bound model per node (a study prices a fixed node set, so
        # binding once beats re-constructing per die).  Keyed by node
        # name with an identity re-check: long-lived study nodes hit,
        # while Monte-Carlo churn (a fresh defect-scaled node per draw,
        # same name) re-binds in place instead of growing the cache.
        models: dict[str, tuple] = {}

        def model_for(node: ProcessNode):
            if entry is None:
                return None
            cached = models.get(node.name)
            if cached is not None and cached[0] is node:
                return cached[1]
            model = entry.for_node(node)
            models[node.name] = (node, model)
            return model

        def price_die(node: ProcessNode, area: float):
            return cached_die_cost(
                DieSpec(area=area, node=node, geometry=geometry),
                model_for(node),
            )

        return price_die


def build_registries(
    document: Mapping[str, Any], base: ConfigRegistries | None = None
) -> ConfigRegistries:
    """Scoped registries holding a document's custom technology sections.

    Used by both the config loader and ``repro.scenario``; raises
    :class:`ConfigError` for malformed specs.  ``base`` supplies the
    registries to layer on (default: the global ones).
    """
    if base is None:
        registries = ConfigRegistries()
    else:
        registries = ConfigRegistries(
            nodes=base.nodes.child(),
            technologies=base.technologies.child(),
            d2d=base.d2d.child(),
            yield_models=base.yield_models.child(),
            geometries=base.geometries.child(),
        )
    sections = (
        ("nodes", registries.nodes.register_spec),
        ("technologies", registries.technologies.register_spec),
        ("d2d_interfaces", registries.d2d.register_spec),
        ("yield_models", registries.yield_models.register_spec),
        ("wafer_geometries", registries.geometries.register_spec),
    )
    for section, register in sections:
        payload = document.get(section) or {}
        if not isinstance(payload, Mapping):
            raise ConfigError(f"{section!r} section must be a mapping")
        for name, spec in payload.items():
            try:
                register(name, spec)
            except RegistryError as error:
                raise ConfigError(f"{section}[{name!r}]: {error}") from None
    return registries


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _d2d_payload(chip: Chip, pools: "_Pools") -> dict[str, Any]:
    """The chip payload's D2D policy fields."""
    if chip.d2d is NO_OVERHEAD or not chip.is_chiplet:
        return {"d2d_fraction": 0.0}
    if isinstance(chip.d2d, FractionOverhead):
        return {"d2d_fraction": chip.d2d.fraction}
    if isinstance(chip.d2d, BandwidthOverhead):
        return {
            "d2d": {
                "policy": "bandwidth",
                "bandwidth_gbps": chip.d2d.bandwidth_gbps,
                "interface": pools.d2d_ref(chip.d2d.interface),
            }
        }
    raise ConfigError(
        f"chip {chip.name!r}: D2D policy {type(chip.d2d).__name__} is not "
        "serializable"
    )


class _Pools:
    """Identity-preserving object pools for serialization."""

    def __init__(self) -> None:
        self.modules: dict[int, str] = {}
        self.chips: dict[int, str] = {}
        self.packages: dict[int, str] = {}
        self.module_payload: dict[str, dict[str, Any]] = {}
        self.chip_payload: dict[str, dict[str, Any]] = {}
        self.package_payload: dict[str, dict[str, Any]] = {}
        # Custom-definition sections (value-deduplicated).
        self.node_names: dict[ProcessNode, str] = {}
        self.node_specs: dict[str, dict[str, Any]] = {}
        self.tech_names: dict[int, str] = {}
        self.tech_specs: dict[str, dict[str, Any]] = {}
        self._tech_by_value: dict[str, str] = {}
        # Builtins beyond the v1 set ("3d") need a v2 document even
        # with default parameters — v1 readers reject the bare name.
        self._v1_tech_ok = True
        self.d2d_names: dict[D2DInterface, str] = {}
        self.d2d_specs: dict[str, dict[str, Any]] = {}

    @property
    def needs_v2(self) -> bool:
        return bool(
            self.node_specs
            or self.tech_specs
            or self.d2d_specs
            or not self._v1_tech_ok
        )

    # -- technology-definition pools -----------------------------------

    def node_ref(self, node: ProcessNode) -> str:
        """Catalog name, or a generated name backed by a ``nodes`` entry."""
        if NODES.get(node.name) == node:
            return node.name
        if node in self.node_names:
            return self.node_names[node]
        name = node.name
        suffix = 0
        while name in NODES or name in self.node_specs:
            name = f"{node.name}@{suffix}"
            suffix += 1
        self.node_names[node] = name
        self.node_specs[name] = node_to_spec(node)
        return name

    def tech_ref(self, integration: IntegrationTech) -> str:
        """Builtin name, or a generated name backed by ``technologies``."""
        key = id(integration)
        if key in self.tech_names:
            return self.tech_names[key]
        try:
            spec = technology_to_spec(integration)
        except (RegistryError, ChipletActuaryError) as error:
            raise ConfigError(
                f"integration {integration.name!r} is not serializable: {error}"
            ) from None
        if not spec["params"]:
            if spec["base"] not in V1_INTEGRATIONS:
                self._v1_tech_ok = False
            self.tech_names[key] = spec["base"]
            return spec["base"]
        value_key = json.dumps(spec, sort_keys=True)
        if value_key not in self._tech_by_value:
            name = f"{spec['base']}@{len(self.tech_specs)}"
            self._tech_by_value[value_key] = name
            self.tech_specs[name] = spec
        self.tech_names[key] = self._tech_by_value[value_key]
        return self.tech_names[key]

    def d2d_ref(self, interface: D2DInterface) -> str:
        """Registered profile name, or a generated ``d2d_interfaces`` entry."""
        registry = d2d_registry()
        if interface.name in registry and registry.get(interface.name) == interface:
            return interface.name
        if interface not in self.d2d_names:
            name = interface.name
            suffix = 0
            while name in self.d2d_specs or name in registry:
                name = f"{interface.name}@{suffix}"
                suffix += 1
            self.d2d_names[interface] = name
            self.d2d_specs[name] = d2d_to_spec(interface)
        return self.d2d_names[interface]

    # -- object pools --------------------------------------------------

    def module_ref(self, module: Module) -> str:
        key = id(module)
        if key not in self.modules:
            ref = f"m{len(self.modules)}"
            self.modules[key] = ref
            self.module_payload[ref] = {
                "name": module.name,
                "area": module.area,
                "node": self.node_ref(module.node),
                "scalable_fraction": module.scalable_fraction,
            }
        return self.modules[key]

    def chip_ref(self, chip: Chip) -> str:
        key = id(chip)
        if key not in self.chips:
            ref = f"c{len(self.chips)}"
            self.chips[key] = ref
            payload = {
                "name": chip.name,
                "modules": [self.module_ref(m) for m in chip.modules],
                "node": self.node_ref(chip.node),
            }
            payload.update(_d2d_payload(chip, self))
            self.chip_payload[ref] = payload
        return self.chips[key]

    def package_ref(self, package: PackageDesign) -> str:
        key = id(package)
        if key not in self.packages:
            ref = f"p{len(self.packages)}"
            self.packages[key] = ref
            self.package_payload[ref] = {
                "name": package.name,
                "integration": self.tech_ref(package.integration),
                "socket_areas": list(package.socket_areas),
            }
        return self.packages[key]


def portfolio_to_dict(portfolio: Portfolio) -> dict[str, Any]:
    """Serialize a portfolio (or use :func:`system_to_dict` for one system).

    Emits version 1 when only catalog nodes, default technologies and
    fraction D2D policies appear; version 2 (with ``nodes`` /
    ``technologies`` / ``d2d_interfaces`` sections) otherwise.
    """
    pools = _Pools()
    systems = []
    for system in portfolio.systems:
        payload: dict[str, Any] = {
            "name": system.name,
            "chips": [pools.chip_ref(chip) for chip in system.chips],
            "integration": pools.tech_ref(system.integration),
            "quantity": system.quantity,
        }
        if system.package is not None:
            payload["package"] = pools.package_ref(system.package)
        systems.append(payload)

    bandwidth_d2d = any("d2d" in p for p in pools.chip_payload.values())
    version = 2 if (pools.needs_v2 or bandwidth_d2d) else 1
    document: dict[str, Any] = {"version": version}
    if version == 2:
        if pools.node_specs:
            document["nodes"] = pools.node_specs
        if pools.tech_specs:
            document["technologies"] = pools.tech_specs
        if pools.d2d_specs:
            document["d2d_interfaces"] = pools.d2d_specs
    document.update(
        {
            "modules": pools.module_payload,
            "chips": pools.chip_payload,
            "packages": pools.package_payload,
            "systems": systems,
        }
    )
    return document


def system_to_dict(system: System) -> dict[str, Any]:
    """Serialize one system (a one-element portfolio document)."""
    return portfolio_to_dict(Portfolio([system]))


# ----------------------------------------------------------------------
# deserialization
# ----------------------------------------------------------------------


def _require(payload: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in payload:
        raise ConfigError(f"{context}: missing key {key!r}")
    return payload[key]


def _chip_d2d(payload: Mapping[str, Any], ref: str, registries: ConfigRegistries):
    policy = payload.get("d2d")
    if policy is not None:
        kind = policy.get("policy", "fraction")
        if kind == "fraction":
            fraction = float(_require(policy, "fraction", f"chip {ref} d2d"))
            return FractionOverhead(fraction) if fraction > 0 else NO_OVERHEAD
        if kind == "bandwidth":
            name = _require(policy, "interface", f"chip {ref} d2d")
            try:
                interface = registries.d2d.get(name)
            except RegistryError as error:
                raise ConfigError(f"chip {ref}: {error}") from None
            return BandwidthOverhead(
                bandwidth_gbps=float(
                    _require(policy, "bandwidth_gbps", f"chip {ref} d2d")
                ),
                interface=interface,
            )
        raise ConfigError(f"chip {ref}: unknown D2D policy {kind!r}")
    fraction = float(payload.get("d2d_fraction", 0.0))
    return FractionOverhead(fraction) if fraction > 0 else NO_OVERHEAD


def portfolio_from_dict(
    document: Mapping[str, Any],
    registries: ConfigRegistries | None = None,
) -> Portfolio:
    """Rebuild a portfolio, restoring object sharing.

    Accepts version-1 and version-2 documents.  ``registries``
    optionally supplies pre-built scoped registries (the scenario
    runner passes its own so a scenario's custom technologies are
    visible to embedded portfolios); the document's own sections are
    layered on top of them.
    """
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ConfigError(
            f"unsupported config version {version!r} "
            f"(expected one of {SUPPORTED_VERSIONS})"
        )
    if version == 1:
        for section in (
            "nodes", "technologies", "d2d_interfaces",
            "yield_models", "wafer_geometries",
        ):
            if section in document:
                raise ConfigError(
                    f"version-1 documents cannot carry a {section!r} section "
                    "(use version 2)"
                )
    registries = build_registries(document, base=registries)

    def resolve_node(name: str, context: str) -> ProcessNode:
        if version == 1 and name not in NODES:
            raise ConfigError(f"{context}: node {name!r} is not a catalog node")
        try:
            return registries.nodes.get(name)
        except RegistryError as error:
            raise ConfigError(f"{context}: {error}") from None

    modules: dict[str, Module] = {}
    for ref, payload in _require(document, "modules", "document").items():
        modules[ref] = Module(
            name=_require(payload, "name", f"module {ref}"),
            area=float(_require(payload, "area", f"module {ref}")),
            node=resolve_node(
                _require(payload, "node", f"module {ref}"), f"module {ref}"
            ),
            scalable_fraction=float(payload.get("scalable_fraction", 1.0)),
        )

    chips: dict[str, Chip] = {}
    for ref, payload in _require(document, "chips", "document").items():
        module_refs = _require(payload, "modules", f"chip {ref}")
        try:
            chip_modules = tuple(modules[m] for m in module_refs)
        except KeyError as missing:
            raise ConfigError(f"chip {ref}: unknown module {missing}") from None
        chips[ref] = Chip(
            name=_require(payload, "name", f"chip {ref}"),
            modules=chip_modules,
            node=resolve_node(
                _require(payload, "node", f"chip {ref}"), f"chip {ref}"
            ),
            d2d=_chip_d2d(payload, ref, registries),
        )

    integrations: dict[str, IntegrationTech] = {}

    def integration_for(name: str) -> IntegrationTech:
        if version == 1 and name not in V1_INTEGRATIONS:
            raise ConfigError(f"unknown integration {name!r}")
        if name not in integrations:
            try:
                integrations[name] = registries.technologies.create(name)
            except RegistryError as error:
                raise ConfigError(str(error)) from None
        return integrations[name]

    packages: dict[str, PackageDesign] = {}
    for ref, payload in (document.get("packages") or {}).items():
        packages[ref] = PackageDesign(
            name=_require(payload, "name", f"package {ref}"),
            integration=integration_for(
                _require(payload, "integration", f"package {ref}")
            ),
            socket_areas=tuple(
                float(a)
                for a in _require(payload, "socket_areas", f"package {ref}")
            ),
        )

    systems = []
    for payload in _require(document, "systems", "document"):
        name = _require(payload, "name", "system")
        chip_refs = _require(payload, "chips", f"system {name}")
        try:
            system_chips = tuple(chips[c] for c in chip_refs)
        except KeyError as missing:
            raise ConfigError(f"system {name}: unknown chip {missing}") from None
        package_ref = payload.get("package")
        if package_ref is not None and package_ref not in packages:
            raise ConfigError(f"system {name}: unknown package {package_ref!r}")
        systems.append(
            System(
                name=name,
                chips=system_chips,
                integration=integration_for(
                    _require(payload, "integration", f"system {name}")
                ),
                quantity=float(payload.get("quantity", 1.0)),
                package=packages.get(package_ref) if package_ref else None,
            )
        )
    return Portfolio(systems)


def save_portfolio(portfolio: Portfolio, path: str) -> None:
    """Write a portfolio to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(portfolio_to_dict(portfolio), handle, indent=2)


def load_portfolio(path: str) -> Portfolio:
    """Read a portfolio from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise ConfigError(f"{path}: invalid JSON ({error})") from None
    except OSError as error:
        raise ConfigError(f"{path}: {error.strerror or error}") from None
    return portfolio_from_dict(document)
