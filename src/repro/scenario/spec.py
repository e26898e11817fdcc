"""Declarative scenario descriptions.

A :class:`ScenarioSpec` describes a whole study campaign as data: the
custom technologies it introduces (registry specs, shared with config
schema v2) and a list of *studies* to execute.  Specs are plain frozen
dataclasses, JSON round-trippable via :func:`scenario_to_dict` /
:func:`scenario_from_dict`, so "add a scenario" is a data change — a
JSON file run by ``chiplet-actuary run scenario.json`` — not a code
change.

Study kinds (each a dataclass below, dispatched by its ``kind`` key):

``figure``           one of the paper's figure experiments (2/4/5/6/8/9/10)
``systems``          price the systems of an embedded config document
``partition_sweep``  RE cost across chiplet counts (closed-form engine path)
``partition_grid``   RE cost across areas x chiplet counts
``montecarlo``       cost distribution under defect-density uncertainty
``pareto``           cost/footprint design-space + frontier
``search``           vectorized design-space search + dominance pruning
``sensitivity``      tornado study over model parameters
``reuse``            an SCMS / OCME / FSMC reuse-portfolio study
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.registry.core import Registry

#: Figure experiments a ``figure`` study may reference.
FIGURE_IDS = (2, 4, 5, 6, 8, 9, 10)

#: Reuse schemes a ``reuse`` study may reference.
REUSE_SCHEMES = ("scms", "ocme", "fsmc")

#: The only ``precision`` a study accepts: the engine has one
#: arithmetic contract (PERFORMANCE.md "One arithmetic contract").  The
#: field stays because studies reject unknown keys, and saved scenarios
#: and perfbench's study document still send ``"precision": "exact"``.
PRECISIONS = ("exact",)


def _check_precision(study: object) -> None:
    """Reject a study asking for a removed precision tier."""
    precision = getattr(study, "precision")
    if precision not in PRECISIONS:
        raise ConfigError(
            f"{study.kind} study {getattr(study, 'name', '')!r}: precision "
            f"must be 'exact', got {precision!r} (the fast precision "
            f"tiers were removed)"
        )

#: kind -> study dataclass.
STUDY_TYPES: Registry[type] = Registry(kind="study type")


def register_study_type(cls: type) -> type:
    """Class decorator adding a study dataclass to :data:`STUDY_TYPES`."""
    STUDY_TYPES.register(cls.kind, cls)
    return cls


@register_study_type
@dataclass(frozen=True)
class FigureStudy:
    """Re-run one of the paper's figure experiments.

    ``params`` are the keyword arguments of the figure's ``run_figN``
    harness in JSON-friendly form (node names as strings, lists for
    tuples); empty params reproduce the paper's defaults exactly.
    """

    kind = "figure"
    figure: int
    name: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.figure not in FIGURE_IDS:
            raise ConfigError(
                f"figure study: figure must be one of {FIGURE_IDS}, "
                f"got {self.figure}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"fig{self.figure}")


@register_study_type
@dataclass(frozen=True)
class SystemsStudy:
    """Price the systems of an embedded config document.

    ``document`` is a config-schema body (modules/chips/packages/
    systems pools, optionally its own nodes/technologies sections); the
    scenario's custom technologies are in scope, so systems can
    reference them by name.
    """

    kind = "systems"
    name: str
    document: Mapping[str, Any]
    metric: str = "total"  # "total" (RE + amortized NRE) or "re"
    yield_model: str = ""
    wafer_geometry: str = ""

    def __post_init__(self) -> None:
        if self.metric not in ("total", "re"):
            raise ConfigError(
                f"systems study {self.name!r}: metric must be 'total' or "
                f"'re', got {self.metric!r}"
            )


@register_study_type
@dataclass(frozen=True)
class PartitionSweepStudy:
    """RE cost across partition granularities (closed-form engine path).

    ``yield_model`` / ``wafer_geometry`` optionally name registry
    entries (built-in or declared in the scenario's sections) replacing
    the node-default negative binomial and the idealized wafer.
    """

    kind = "partition_sweep"
    name: str
    module_area: float
    node: str
    technology: str
    chiplet_counts: tuple[int, ...] = (1, 2, 3, 4, 5)
    d2d_fraction: float = 0.10
    yield_model: str = ""
    wafer_geometry: str = ""


@register_study_type
@dataclass(frozen=True)
class PartitionGridStudy:
    """RE cost across module areas x chiplet counts."""

    kind = "partition_grid"
    name: str
    module_areas: tuple[float, ...]
    chiplet_counts: tuple[int, ...]
    node: str
    technology: str
    d2d_fraction: float = 0.10
    soc_for_one: bool = True
    yield_model: str = ""
    wafer_geometry: str = ""


@register_study_type
@dataclass(frozen=True)
class MonteCarloStudy:
    """RE-cost distribution under defect-density uncertainty.

    A named ``yield_model`` / ``wafer_geometry`` reprices every draw
    through the registry entry — the closed-form plan re-prices each
    draw's chips through the override on defect-scaled nodes,
    draw-for-draw identical to the naive sampler.
    """

    kind = "montecarlo"
    name: str
    module_area: float
    node: str
    technology: str = "soc"
    n_chiplets: int = 1
    d2d_fraction: float = 0.10
    draws: int = 500
    sigma: float = 0.15
    seed: int = 0
    precision: str = "exact"
    yield_model: str = ""
    wafer_geometry: str = ""

    def __post_init__(self) -> None:
        _check_precision(self)


@register_study_type
@dataclass(frozen=True)
class ParetoStudy:
    """Cost/footprint design space and its Pareto frontier."""

    kind = "pareto"
    name: str
    module_area: float
    node: str
    quantity: float
    technologies: tuple[str, ...] = ("mcm", "info", "2.5d")
    chiplet_counts: tuple[int, ...] = (2, 3, 4, 5)
    d2d_fraction: float = 0.10
    yield_model: str = ""
    wafer_geometry: str = ""


@register_study_type
@dataclass(frozen=True)
class SearchStudy:
    """Vectorized design-space search (``repro.search``).

    The axes mirror :class:`~repro.search.space.DesignSpace` with
    registry *names* throughout; the study streams every candidate
    through the dense evaluator and reports the Pareto frontier under
    ``objectives`` plus the ``top_k`` cost-optimal designs.  An empty
    ``test_cost`` mapping enables tester economics with default
    parameters; omit the key to skip test metrics.
    """

    kind = "search"
    name: str
    module_areas: tuple[float, ...]
    nodes: tuple[str, ...]
    technologies: tuple[str, ...] = ("mcm", "info", "2.5d")
    chiplet_counts: tuple[int, ...] = (2, 3, 4, 5)
    d2d_fractions: tuple[float, ...] = (0.10,)
    quantity: float = 500_000.0
    objectives: tuple[str, ...] = ("total", "footprint")
    top_k: int = 10
    include_soc: bool = True
    test_cost: Mapping[str, Any] | None = None
    yield_model: str = ""
    wafer_geometry: str = ""

    def __post_init__(self) -> None:
        self.space()  # validate the axes eagerly, with study context

    def space(self):
        """The study's :class:`~repro.search.space.DesignSpace`."""
        from repro.search.space import DesignSpace

        try:
            return DesignSpace(
                module_areas=self.module_areas,
                nodes=self.nodes,
                technologies=self.technologies,
                chiplet_counts=self.chiplet_counts,
                d2d_fractions=self.d2d_fractions,
                quantity=self.quantity,
                objectives=self.objectives,
                top_k=self.top_k,
                include_soc=self.include_soc,
                test_cost=self.test_cost,
            )
        except ConfigError as error:
            raise ConfigError(
                f"search study {self.name!r}: {error}"
            ) from None


@register_study_type
@dataclass(frozen=True)
class SensitivityStudy:
    """Tornado study over model parameters of a partitioned design."""

    kind = "sensitivity"
    name: str
    module_area: float
    node: str
    technology: str = "mcm"
    n_chiplets: int = 2
    d2d_fraction: float = 0.10
    parameters: tuple[str, ...] = (
        "defect_density",
        "wafer_price",
        "d2d_fraction",
        "module_area",
    )
    step: float = 0.2
    yield_model: str = ""
    wafer_geometry: str = ""


@register_study_type
@dataclass(frozen=True)
class ReuseStudy:
    """An SCMS / OCME / FSMC reuse-portfolio study.

    ``params`` map onto the scheme's config dataclass (``SCMSConfig`` /
    ``OCMEConfig`` / ``FSMCConfig``) with node references as names.
    ``volume_sweep`` optionally lists volume scales (multipliers on
    every system quantity); when non-empty the study additionally runs
    a closed-form vectorized volume sweep over every portfolio variant
    and exports per-scale rows through the sinks.
    """

    kind = "reuse"
    name: str
    scheme: str
    technology: str = "mcm"
    params: Mapping[str, Any] = field(default_factory=dict)
    volume_sweep: tuple[float, ...] = ()
    precision: str = "exact"
    yield_model: str = ""
    wafer_geometry: str = ""

    def __post_init__(self) -> None:
        _check_precision(self)
        if self.scheme not in REUSE_SCHEMES:
            raise ConfigError(
                f"reuse study {self.name!r}: scheme must be one of "
                f"{REUSE_SCHEMES}, got {self.scheme!r}"
            )
        for scale in self.volume_sweep:
            if not isinstance(scale, (int, float)) or not scale > 0:
                raise ConfigError(
                    f"reuse study {self.name!r}: volume_sweep scales must "
                    f"be positive numbers, got {scale!r}"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named campaign: custom technologies plus the studies to run.

    Attributes:
        name: Scenario name (reports and CLI output headers).
        description: One-line description.
        nodes: Custom process-node registry specs, by name.
        technologies: Custom integration-technology specs, by name.
        d2d_interfaces: Custom D2D profile specs, by name.
        yield_models: Custom yield-model registry specs, by name.
        wafer_geometries: Custom wafer-geometry specs, by name.
        sinks: Output-sink settings (``repro.scenario.sinks``):
            ``{"directory": <dir>, "formats": ["csv", "json"]}``; empty
            = no automatic export.
        studies: Studies executed in order by the runner.
    """

    name: str
    description: str = ""
    nodes: Mapping[str, Any] = field(default_factory=dict)
    technologies: Mapping[str, Any] = field(default_factory=dict)
    d2d_interfaces: Mapping[str, Any] = field(default_factory=dict)
    yield_models: Mapping[str, Any] = field(default_factory=dict)
    wafer_geometries: Mapping[str, Any] = field(default_factory=dict)
    sinks: Mapping[str, Any] = field(default_factory=dict)
    studies: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a scenario needs a name")
        names = [study.name for study in self.studies]
        if len(set(names)) != len(names):
            raise ConfigError(
                f"scenario {self.name!r}: study names must be unique"
            )


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------


def _jsonify(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


def study_to_dict(study: Any) -> dict[str, Any]:
    """Serialize one study dataclass (adds the ``kind`` discriminator)."""
    payload: dict[str, Any] = {"kind": study.kind}
    for spec_field in dataclasses.fields(study):
        payload[spec_field.name] = _jsonify(getattr(study, spec_field.name))
    return payload


def study_from_dict(payload: Mapping[str, Any]) -> Any:
    """Rebuild a study dataclass from its serialized form."""
    if not isinstance(payload, Mapping):
        raise ConfigError(f"study must be a mapping, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind is None:
        raise ConfigError("study: missing key 'kind'")
    if kind not in STUDY_TYPES:
        raise ConfigError(
            f"unknown study kind {kind!r} "
            f"(available: {', '.join(STUDY_TYPES.names())})"
        )
    cls = STUDY_TYPES.get(kind)
    field_names = {spec_field.name for spec_field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - field_names - {"kind"})
    if unknown:
        raise ConfigError(f"study kind {kind!r}: unknown keys {unknown}")
    missing = sorted(
        spec_field.name for spec_field in dataclasses.fields(cls)
        if spec_field.default is dataclasses.MISSING
        and spec_field.default_factory is dataclasses.MISSING
        and spec_field.name not in payload
    )
    if missing:
        raise ConfigError(f"study kind {kind!r}: missing keys {missing}")
    kwargs = {
        key: tuple(_detuple(item) for item in value)
        if isinstance(value, list)
        else value
        for key, value in payload.items()
        if key != "kind"
    }
    return cls(**kwargs)


def _detuple(value: Any) -> Any:
    return tuple(_detuple(item) for item in value) if isinstance(value, list) else value


def scenario_to_dict(spec: ScenarioSpec) -> dict[str, Any]:
    """Serialize a scenario to a JSON-ready document."""
    document: dict[str, Any] = {"scenario": spec.name}
    if spec.description:
        document["description"] = spec.description
    for section in (
        "nodes", "technologies", "d2d_interfaces",
        "yield_models", "wafer_geometries", "sinks",
    ):
        payload = getattr(spec, section)
        if payload:
            document[section] = _jsonify(payload)
    document["studies"] = [study_to_dict(study) for study in spec.studies]
    return document


def scenario_from_dict(document: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from its serialized form."""
    if not isinstance(document, Mapping):
        raise ConfigError("scenario document must be a JSON object")
    name = document.get("scenario") or document.get("name")
    if not name:
        raise ConfigError("scenario document: missing key 'scenario'")
    known = {"scenario", "name", "description", "nodes", "technologies",
             "d2d_interfaces", "yield_models", "wafer_geometries", "sinks",
             "studies"}
    unknown = sorted(set(document) - known)
    if unknown:
        raise ConfigError(f"scenario document: unknown keys {unknown}")
    studies = tuple(
        study_from_dict(study) for study in document.get("studies", [])
    )
    return ScenarioSpec(
        name=str(name),
        description=str(document.get("description", "")),
        nodes=dict(document.get("nodes") or {}),
        technologies=dict(document.get("technologies") or {}),
        d2d_interfaces=dict(document.get("d2d_interfaces") or {}),
        yield_models=dict(document.get("yield_models") or {}),
        wafer_geometries=dict(document.get("wafer_geometries") or {}),
        sinks=dict(document.get("sinks") or {}),
        studies=studies,
    )


def save_scenario(spec: ScenarioSpec, path: str) -> None:
    """Write a scenario to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(spec), handle, indent=2)
        handle.write("\n")


def load_scenario(path: str) -> ScenarioSpec:
    """Read a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise ConfigError(f"{path}: invalid JSON ({error})") from None
    except OSError as error:
        raise ConfigError(f"{path}: {error.strerror or error}") from None
    return scenario_from_dict(document)
