"""Design-space specification for the search subsystem.

A :class:`DesignSpace` names the axes the optimizer sweeps — module
areas, process nodes, integration technologies, chiplet counts and D2D
fractions — plus the production quantity, the objective vector and the
result sizes.  It is pure data (registry *names*, JSON-friendly
tuples): resolution against registries happens in
:mod:`repro.search.evaluate`, so the same space can run against the
global catalogs or a scenario's scoped layers.

Candidates have one canonical enumeration order, shared by the
vectorized evaluator, the naive oracle and the reported indices::

    for node in nodes:                      # when include_soc
        for area in module_areas:           #   the monolithic SoC reference
            ...
    for technology in technologies:         # then every partition
        for count in chiplet_counts:
            for fraction in d2d_fractions:
                for node in nodes:
                    for area in module_areas:
                        ...

so ``index`` identifies one candidate everywhere (sink rows, parity
tests, spot re-evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import ConfigError

#: Objective/metric names a space may select, in reporting order.
OBJECTIVES = (
    "re",
    "nre",
    "total",
    "silicon_area",
    "footprint",
    "test_cost",
)

#: One-line description per objective (CLI/docs listings).
OBJECTIVE_DESCRIPTIONS: Mapping[str, str] = {
    "re": "recurring cost per unit, USD",
    "nre": "program NRE at the space's quantity, USD",
    "total": "per-unit total cost (RE + amortized NRE), USD",
    "silicon_area": "total die area in the package, mm^2",
    "footprint": "package (substrate) footprint, mm^2",
    "test_cost": "wafer-sort + package-test cost per unit, USD",
}


@dataclass(frozen=True)
class CandidateAxes:
    """The decoded axis values of one candidate.

    ``scheme`` is ``"soc"`` for the monolithic reference, else the
    integration technology's registry name; SoC candidates carry
    ``chiplets=1`` and ``d2d_fraction=0.0``.
    """

    index: int
    scheme: str
    technology: str
    chiplets: int
    d2d_fraction: float
    node: str
    module_area: float


@dataclass(frozen=True)
class CandidateGroup:
    """One (scheme, technology, count, fraction, node) slice of a space.

    The group's candidates are the module-area axis, contiguous in the
    canonical order starting at ``base_index``.
    """

    scheme: str
    technology: str
    chiplets: int
    d2d_fraction: float
    node: str
    base_index: int


@dataclass(frozen=True)
class DesignSpace:
    """Axes and settings of one design-space search.

    Attributes:
        module_areas: Total functional areas to partition, mm^2.
        nodes: Process-node registry names every candidate may fab on.
        technologies: Integration-technology registry names (partition
            candidates); may be empty for an SoC-only space.
        chiplet_counts: Partition granularities (chips per package).
        d2d_fractions: D2D share of each chiplet's area.
        quantity: Production quantity for NRE amortization.
        objectives: Metric names spanning the Pareto dominance check.
        top_k: How many cost-optimal candidates to report (by ``total``).
        include_soc: Include the monolithic SoC reference per
            (node, area) pair.
        test_cost: Optional tester-model parameters
            (:class:`~repro.packaging.testcost.TestCostModel` fields);
            an empty mapping selects the model's defaults.  ``None``
            disables test metrics.
    """

    module_areas: tuple[float, ...]
    nodes: tuple[str, ...]
    technologies: tuple[str, ...] = ("mcm", "info", "2.5d")
    chiplet_counts: tuple[int, ...] = (2, 3, 4, 5)
    d2d_fractions: tuple[float, ...] = (0.10,)
    quantity: float = 500_000.0
    objectives: tuple[str, ...] = ("total", "footprint")
    top_k: int = 10
    include_soc: bool = True
    test_cost: Mapping[str, Any] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.module_areas:
            raise ConfigError("design space: module_areas must be non-empty")
        for area in self.module_areas:
            if not isinstance(area, (int, float)) or not area > 0:
                raise ConfigError(
                    f"design space: module areas must be > 0, got {area!r}"
                )
        if not self.nodes:
            raise ConfigError("design space: nodes must be non-empty")
        if not self.technologies and not self.include_soc:
            raise ConfigError(
                "design space: no technologies and include_soc false — "
                "the space is empty"
            )
        if self.technologies and not self.chiplet_counts:
            raise ConfigError(
                "design space: chiplet_counts must be non-empty when "
                "technologies are listed"
            )
        for count in self.chiplet_counts:
            if not isinstance(count, int) or count < 1:
                raise ConfigError(
                    f"design space: chiplet counts must be integers >= 1, "
                    f"got {count!r}"
                )
        if self.technologies and not self.d2d_fractions:
            raise ConfigError(
                "design space: d2d_fractions must be non-empty when "
                "technologies are listed"
            )
        for fraction in self.d2d_fractions:
            if (
                not isinstance(fraction, (int, float))
                or not 0.0 <= fraction < 1.0
            ):
                raise ConfigError(
                    f"design space: D2D fractions must be in [0, 1), "
                    f"got {fraction!r}"
                )
        if not self.quantity > 0:
            raise ConfigError(
                f"design space: quantity must be > 0, got {self.quantity!r}"
            )
        if not self.objectives:
            raise ConfigError("design space: objectives must be non-empty")
        if len(set(self.objectives)) != len(self.objectives):
            raise ConfigError(
                f"design space: duplicate objectives {list(self.objectives)}"
            )
        for objective in self.objectives:
            if objective not in OBJECTIVES:
                raise ConfigError(
                    f"design space: unknown objective {objective!r} "
                    f"(available: {', '.join(OBJECTIVES)})"
                )
        if "test_cost" in self.objectives and self.test_cost is None:
            raise ConfigError(
                "design space: objective 'test_cost' needs the test_cost "
                "section (tester-model parameters, {} for defaults)"
            )
        if self.top_k < 0:
            raise ConfigError(
                f"design space: top_k must be >= 0, got {self.top_k}"
            )
        self.test_model()  # validate tester parameters eagerly

    # ------------------------------------------------------------------

    def test_model(self):
        """The space's :class:`TestCostModel`, or ``None`` when disabled."""
        if self.test_cost is None:
            return None
        from repro.errors import InvalidParameterError
        from repro.packaging.testcost import TestCostModel

        try:
            return TestCostModel(**dict(self.test_cost))
        except TypeError:
            import dataclasses

            known = [f.name for f in dataclasses.fields(TestCostModel)]
            unknown = sorted(set(self.test_cost) - set(known))
            raise ConfigError(
                f"design space: unknown test_cost parameters {unknown} "
                f"(available: {', '.join(known)})"
            ) from None
        except InvalidParameterError as error:
            raise ConfigError(f"design space: test_cost: {error}") from None

    @property
    def metrics(self) -> tuple[str, ...]:
        """Metric names every candidate is evaluated on."""
        if self.test_cost is None:
            return tuple(name for name in OBJECTIVES if name != "test_cost")
        return OBJECTIVES

    @property
    def n_soc_candidates(self) -> int:
        if not self.include_soc:
            return 0
        return len(self.nodes) * len(self.module_areas)

    @property
    def n_candidates(self) -> int:
        """Total candidate count in the canonical enumeration."""
        partitions = (
            len(self.technologies)
            * len(self.chiplet_counts)
            * len(self.d2d_fractions)
            * len(self.nodes)
            * len(self.module_areas)
        )
        return self.n_soc_candidates + partitions

    # ------------------------------------------------------------------

    def groups(self) -> Iterator[CandidateGroup]:
        """The (scheme, technology, count, fraction, node) slices, in
        canonical order; each spans the module-area axis contiguously."""
        base = 0
        if self.include_soc:
            for node in self.nodes:
                yield CandidateGroup(
                    scheme="soc",
                    technology="",
                    chiplets=1,
                    d2d_fraction=0.0,
                    node=node,
                    base_index=base,
                )
                base += len(self.module_areas)
        for technology in self.technologies:
            for count in self.chiplet_counts:
                for fraction in self.d2d_fractions:
                    for node in self.nodes:
                        yield CandidateGroup(
                            scheme=technology,
                            technology=technology,
                            chiplets=count,
                            d2d_fraction=fraction,
                            node=node,
                            base_index=base,
                        )
                        base += len(self.module_areas)

    def axes(self, index: int) -> CandidateAxes:
        """Decode one canonical candidate index into its axis values."""
        if not 0 <= index < self.n_candidates:
            raise ConfigError(
                f"design space: candidate index {index} out of range "
                f"(space has {self.n_candidates} candidates)"
            )
        n_areas = len(self.module_areas)
        if index < self.n_soc_candidates:
            node_index, area_index = divmod(index, n_areas)
            return CandidateAxes(
                index=index,
                scheme="soc",
                technology="",
                chiplets=1,
                d2d_fraction=0.0,
                node=self.nodes[node_index],
                module_area=self.module_areas[area_index],
            )
        rest, area_index = divmod(index - self.n_soc_candidates, n_areas)
        rest, node_index = divmod(rest, len(self.nodes))
        rest, fraction_index = divmod(rest, len(self.d2d_fractions))
        tech_index, count_index = divmod(rest, len(self.chiplet_counts))
        return CandidateAxes(
            index=index,
            scheme=self.technologies[tech_index],
            technology=self.technologies[tech_index],
            chiplets=self.chiplet_counts[count_index],
            d2d_fraction=self.d2d_fractions[fraction_index],
            node=self.nodes[node_index],
            module_area=self.module_areas[area_index],
        )

