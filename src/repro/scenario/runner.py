"""ScenarioRunner: executes declarative scenario specs.

The runner owns a :class:`~repro.engine.costengine.CostEngine` and a set
of scoped registries (the scenario's custom nodes / technologies / D2D
profiles / yield models / wafer geometries layered over the global
ones), and dispatches each study to an executor that routes through the
engine's batched fast paths.  Every study returns a
:class:`StudyResult` holding the structured result object, rendered
text, *and* header-keyed ``rows`` consumed by the output sinks
(``repro.scenario.sinks``); figure studies produce output identical to
the corresponding ``run_figN`` + printer pipeline (parity-tested in
``tests/test_scenario.py``).

Registry-name resolution is uniform across study kinds: every
non-figure study (``systems``, ``partition_sweep``, ``partition_grid``,
``montecarlo``, ``pareto``, ``search``, ``sensitivity``, ``reuse``)
accepts
``yield_model`` / ``wafer_geometry`` names, resolved through
:meth:`repro.config.ConfigRegistries.die_cost_fn` into a die-pricing
override threaded into the engine entry point the executor uses —
unknown names raise a :class:`~repro.errors.ConfigError` naming the
study and listing the available entries.  ``montecarlo`` studies run
the closed-form sampler, which re-prices each draw through the
override while drawing its prior stream vectorized
(``repro.engine.rng``).  ``reuse`` studies run on the vectorized
:class:`~repro.engine.fastportfolio.PortfolioEngine` and may declare a
closed-form ``volume_sweep`` (a list of volume scales) whose per-scale
averages render as an extra table and export through the sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.canon import fold_sum
from repro.config import ConfigRegistries, build_registries, portfolio_from_dict
from repro.core.system import System
from repro.core.re_cost import compute_re_cost
from repro.engine.costengine import CostEngine
from repro.errors import ConfigError, RegistryError, StudyError
from repro.explore.partition import partition_monolith, soc_reference
from repro.process.node import ProcessNode
from repro.reporting.table import Table
from repro.scenario.spec import (
    FigureStudy,
    MonteCarloStudy,
    ParetoStudy,
    PartitionGridStudy,
    PartitionSweepStudy,
    ReuseStudy,
    ScenarioSpec,
    SearchStudy,
    SensitivityStudy,
    SystemsStudy,
    scenario_from_dict,
)


@dataclass(frozen=True)
class StudyResult:
    """One executed study: structured data plus rendered text.

    ``rows`` are header-keyed record dicts (the structured counterpart
    of the rendered tables) consumed by the output sinks
    (``repro.scenario.sinks``); figure studies render text only and
    carry no rows.
    """

    name: str
    kind: str
    data: Any
    text: str
    rows: tuple[Mapping[str, Any], ...] = ()

    def render(self) -> str:
        return self.text


@dataclass(frozen=True)
class ScenarioResult:
    """All study results of one scenario run, in execution order."""

    scenario: str
    results: tuple[StudyResult, ...]

    def result(self, name: str) -> StudyResult:
        for entry in self.results:
            if entry.name == name:
                return entry
        raise ConfigError(
            f"scenario {self.scenario!r} has no study {name!r} "
            f"(studies: {[entry.name for entry in self.results]})"
        )

    def render(self) -> str:
        blocks = [f"=== {entry.name} ===\n{entry.text}" for entry in self.results]
        return "\n\n".join(blocks)


class ScenarioRunner:
    """Executes :class:`~repro.scenario.spec.ScenarioSpec` objects.

    Args:
        engine: The partition-study engine (default: a new
            :class:`CostEngine`; it keeps no state).
    """

    def __init__(self, engine: CostEngine | None = None):
        self.engine = engine if engine is not None else CostEngine()
        from repro.engine.fastportfolio import PortfolioEngine

        #: Reuse studies route through this batched portfolio engine.
        self.portfolio_engine = PortfolioEngine()

    # ------------------------------------------------------------------

    def run(self, spec: "ScenarioSpec | Mapping[str, Any]") -> ScenarioResult:
        """Execute every study of ``spec`` in order."""
        if isinstance(spec, Mapping):
            spec = scenario_from_dict(spec)
        return ScenarioResult(
            scenario=spec.name, results=tuple(self.iter_run(spec))
        )

    def iter_run(self, spec: "ScenarioSpec | Mapping[str, Any]"):
        """Yield each study's :class:`StudyResult` as it completes.

        The incremental face of :meth:`run` — the service layer streams
        NDJSON study events from it, so a long scenario's early results
        reach the client before the last study finishes.
        """
        if isinstance(spec, Mapping):
            spec = scenario_from_dict(spec)
        registries = build_registries(
            {
                "nodes": dict(spec.nodes),
                "technologies": dict(spec.technologies),
                "d2d_interfaces": dict(spec.d2d_interfaces),
                "yield_models": dict(spec.yield_models),
                "wafer_geometries": dict(spec.wafer_geometries),
            }
        )
        for study in spec.studies:
            yield self.run_study(study, registries, scenario=spec.name)

    def run_study(
        self,
        study: Any,
        registries: ConfigRegistries | None = None,
        scenario: str = "",
    ) -> StudyResult:
        """Execute a single study against the given (or global) registries.

        Failures are typed: an unknown study kind, or a bare
        ``KeyError`` / ``AttributeError`` / ``RegistryError`` escaping
        an executor, is re-raised as a :class:`~repro.errors.StudyError`
        carrying the scenario/study context (a ``ConfigError`` subclass,
        so existing handlers keep working).  Errors the executors
        already contextualize (``ConfigError`` and friends) pass through
        unchanged.
        """
        registries = registries if registries is not None else ConfigRegistries()
        kind = getattr(study, "kind", None)
        name = getattr(study, "name", "")
        try:
            executor = _EXECUTORS[kind]
        except (KeyError, TypeError):
            raise StudyError(
                f"no executor for study kind {kind if kind is not None else study!r}",
                scenario=scenario,
                study=str(name),
            ) from None
        try:
            outcome = executor(self, study, registries)
        except StudyError:
            raise
        except ConfigError as error:
            if not scenario:
                raise
            raise StudyError(
                str(error), scenario=scenario, study=name, kind=kind
            ) from error
        except (KeyError, AttributeError, RegistryError) as error:
            raise StudyError(
                f"{type(error).__name__}: {error}",
                scenario=scenario,
                study=name,
                kind=kind,
            ) from error
        data, text = outcome[0], outcome[1]
        rows = tuple(outcome[2]) if len(outcome) > 2 else ()
        return StudyResult(
            name=study.name, kind=study.kind, data=data, text=text, rows=rows
        )

    # ------------------------------------------------------------------
    # shared resolution helpers
    # ------------------------------------------------------------------

    def _node(self, registries: ConfigRegistries, ref: str, context: str) -> ProcessNode:
        try:
            return registries.nodes.resolve(ref)
        except RegistryError as error:
            raise ConfigError(f"{context}: {error}") from None

    def _technology(self, registries: ConfigRegistries, ref: str, context: str):
        try:
            return registries.technologies.create(ref)
        except RegistryError as error:
            raise ConfigError(f"{context}: {error}") from None

    def _build_system(
        self,
        registries: ConfigRegistries,
        study: Any,
        quantity: float = 1.0,
    ) -> System:
        """The (module_area, node, technology, n_chiplets) system shape
        shared by the montecarlo and sensitivity studies.

        Mirrors the CLI's semantics: ``technology: "soc"`` prices the
        monolithic reference; any other technology prices the
        ``n_chiplets``-way partition, including a 1-chiplet package.
        """
        node = self._node(registries, study.node, study.name)
        if study.technology == "soc":
            return soc_reference(study.module_area, node, quantity=quantity)
        return partition_monolith(
            study.module_area,
            node,
            study.n_chiplets,
            self._technology(registries, study.technology, study.name),
            d2d_fraction=study.d2d_fraction,
            quantity=quantity,
        )

    def _die_cost_override(self, registries: ConfigRegistries, study: Any):
        """Die pricing honoring a study's named yield model / geometry.

        Delegates to :meth:`ConfigRegistries.die_cost_fn` (the shared
        resolution point for scenario studies, config documents and the
        CLI); returns ``None`` when the study keeps the defaults.
        """
        return registries.die_cost_fn(
            getattr(study, "yield_model", ""),
            getattr(study, "wafer_geometry", ""),
            context=study.name,
        )


# ----------------------------------------------------------------------
# study executors
# ----------------------------------------------------------------------

_Executor = Callable[[ScenarioRunner, Any, ConfigRegistries], tuple[Any, str]]
_EXECUTORS: dict[str, _Executor] = {}


def _executor(kind: str) -> Callable[[_Executor], _Executor]:
    def decorate(fn: _Executor) -> _Executor:
        _EXECUTORS[kind] = fn
        return fn

    return decorate


# -- figure studies ----------------------------------------------------


def _tupled(value: Any) -> Any:
    return tuple(value) if isinstance(value, (list, tuple)) else value


def _figure_params(
    runner: ScenarioRunner,
    study: FigureStudy,
    registries: ConfigRegistries,
) -> dict[str, Any]:
    """Map JSON figure params onto ``run_figN`` keyword arguments."""
    from repro.reuse.ocme import OCMEConfig
    from repro.reuse.scms import SCMSConfig
    from repro.validate.amd import AMDConfig

    params = {key: _tupled(value) for key, value in dict(study.params).items()}
    context = study.name

    def pop_node(payload: dict[str, Any], key: str) -> None:
        if key in payload:
            payload[key] = runner._node(registries, payload[key], context)

    if study.figure == 2 and "technologies" in params:
        params["technologies"] = tuple(
            runner._node(registries, name, context)
            for name in params["technologies"]
        )
    if study.figure in (4, 6) and "nodes" in params:
        params["nodes"] = tuple(
            runner._node(registries, name, context) for name in params["nodes"]
        )
    if study.figure == 10:
        pop_node(params, "node_name")
    if study.figure == 5 and params:
        pop_node(params, "compute_node")
        pop_node(params, "io_node")
        if "core_counts" in params:
            params["core_counts"] = tuple(params["core_counts"])
        return {"config": AMDConfig(**params)}
    if study.figure in (8, 9) and params:
        if "technology" in params:
            # run_fig8/9 price the paper's fixed technology set; a
            # scenario studies a custom one via a 'reuse' study instead.
            raise ConfigError(
                f"{context}: figure {study.figure} prices its paper "
                "technology set; use a 'reuse' study for a custom one"
            )
        pop_node(params, "node")
        pop_node(params, "center_node")
        if "systems" in params:
            params["systems"] = tuple(_tupled(item) for item in params["systems"])
        config_cls = SCMSConfig if study.figure == 8 else OCMEConfig
        return {"config": config_cls(**params)}
    if study.figure == 10 and "situations" in params:
        params["situations"] = tuple(
            tuple(item) for item in params["situations"]
        )
    return params


@_executor("figure")
def _run_figure(
    runner: ScenarioRunner, study: FigureStudy, registries: ConfigRegistries
) -> tuple[Any, str]:
    from repro.experiments import (
        run_fig2,
        run_fig4,
        run_fig5,
        run_fig6,
        run_fig8,
        run_fig9,
        run_fig10,
    )
    from repro.experiments.printers import (
        render_fig2,
        render_fig4_panel,
        render_fig5,
        render_fig6,
        render_fig8,
        render_fig9,
        render_fig10,
    )

    params = _figure_params(runner, study, registries)
    harnesses: dict[int, tuple[Callable, Callable[[Any], str]]] = {
        2: (run_fig2, render_fig2),
        4: (run_fig4, lambda panels: "\n".join(
            render_fig4_panel(panel) + "\n" for panel in panels
        )),
        5: (run_fig5, render_fig5),
        6: (run_fig6, render_fig6),
        8: (run_fig8, render_fig8),
        9: (run_fig9, render_fig9),
        10: (run_fig10, render_fig10),
    }
    run, render = harnesses[study.figure]
    result = run(**params)
    return result, render(result)


# -- systems -----------------------------------------------------------


@_executor("systems")
def _run_systems(
    runner: ScenarioRunner, study: SystemsStudy, registries: ConfigRegistries
) -> tuple[Any, str]:
    from repro.core.breakdown import TotalCost

    document = dict(study.document)
    document.setdefault("version", 2)
    portfolio = portfolio_from_dict(document, registries=registries)
    die_cost_fn = runner._die_cost_override(registries, study)
    table = Table(
        ["system", "quantity", "RE/unit", "NRE/unit", "total/unit"],
        title=f"Systems: {study.name}",
    )
    rows = []
    for system in portfolio.systems:
        re_cost = compute_re_cost(system, die_cost_fn=die_cost_fn)
        if study.metric == "total":
            cost = TotalCost(
                re=re_cost,
                amortized_nre=portfolio.amortized_nre(system),
                quantity=system.quantity,
            )
            row = (system.name, system.quantity, cost.re_total,
                   cost.nre_total, cost.total)
        else:
            row = (system.name, system.quantity, re_cost.total, 0.0,
                   re_cost.total)
        rows.append(row)
        table.add_row([row[0], f"{row[1]:.0f}", row[2], row[3], row[4]])
    return (
        {"portfolio": portfolio, "rows": rows},
        table.render(),
        table.records(),
    )


# -- closed-form partition studies ------------------------------------


@_executor("partition_sweep")
def _run_partition_sweep(
    runner: ScenarioRunner,
    study: PartitionSweepStudy,
    registries: ConfigRegistries,
) -> tuple[Any, str]:
    node = runner._node(registries, study.node, study.name)
    technology = runner._technology(registries, study.technology, study.name)
    sweep = runner.engine.partition_sweep(
        study.name,
        study.module_area,
        node,
        list(study.chiplet_counts),
        technology,
        d2d_fraction=study.d2d_fraction,
        die_cost_fn=runner._die_cost_override(registries, study),
    )
    table = Table(
        ["chiplets", "raw chips", "chip defects", "packaging", "RE total"],
        title=(
            f"Partition sweep: {study.module_area:.0f} mm^2 @ {node.name}, "
            f"{technology.label}"
        ),
    )
    for point in sweep.points:
        table.add_row(
            [point.x, point.value.raw_chips, point.value.chip_defects,
             point.value.packaging_total, point.value.total]
        )
    return sweep, table.render(), table.records()


@_executor("partition_grid")
def _run_partition_grid(
    runner: ScenarioRunner,
    study: PartitionGridStudy,
    registries: ConfigRegistries,
) -> tuple[Any, str]:
    node = runner._node(registries, study.node, study.name)
    technology = runner._technology(registries, study.technology, study.name)
    grid = runner.engine.partition_grid(
        study.name,
        list(study.module_areas),
        list(study.chiplet_counts),
        node,
        technology,
        d2d_fraction=study.d2d_fraction,
        soc_for_one=study.soc_for_one,
        die_cost_fn=runner._die_cost_override(registries, study),
    )
    table = Table(
        ["area_mm2"] + [f"n={count}" for count in study.chiplet_counts],
        title=(
            f"Partition grid (RE total): @ {node.name}, {technology.label}"
        ),
    )
    for area in study.module_areas:
        table.add_row(
            [area]
            + [grid.value(area, count).total for count in study.chiplet_counts]
        )
    return grid, table.render(), table.records()


# -- uncertainty / exploration ----------------------------------------


@_executor("montecarlo")
def _run_montecarlo(
    runner: ScenarioRunner, study: MonteCarloStudy, registries: ConfigRegistries
) -> tuple[Any, str]:
    from repro.explore.montecarlo import monte_carlo_cost

    system = runner._build_system(registries, study)
    distribution = monte_carlo_cost(
        system,
        draws=study.draws,
        sigma=study.sigma,
        seed=study.seed,
        die_cost_fn=runner._die_cost_override(registries, study),
    )
    table = Table(
        ["statistic", "RE USD/unit"],
        title=(
            f"Monte Carlo: {system.name} ({study.draws} draws, "
            f"sigma {study.sigma:.0%})"
        ),
    )
    table.add_row(["mean", distribution.mean])
    table.add_row(["std", distribution.std])
    for q in (0.05, 0.25, 0.50, 0.75, 0.95):
        table.add_row([f"p{int(q * 100):02d}", distribution.quantile(q)])
    return distribution, table.render(), table.records()


@_executor("pareto")
def _run_pareto(
    runner: ScenarioRunner, study: ParetoStudy, registries: ConfigRegistries
) -> tuple[Any, str]:
    """The SoC plus every (technology, count) split of one design point,
    priced as a one-area, one-node search whose top-k is every
    candidate, so the rows come out in (total, index) order."""
    from repro.search.engine import run_search
    from repro.search.space import DesignSpace

    node = runner._node(registries, study.node, study.name)
    labels = {
        name: runner._technology(registries, name, study.name).label
        for name in study.technologies
    }
    space = DesignSpace(
        module_areas=(study.module_area,),
        nodes=(study.node,),
        technologies=tuple(study.technologies),
        chiplet_counts=tuple(study.chiplet_counts),
        d2d_fractions=(study.d2d_fraction,),
        quantity=study.quantity,
        objectives=("total", "footprint"),
        top_k=1 + len(study.technologies) * len(study.chiplet_counts),
    )
    result = run_search(
        space,
        registries=registries,
        die_cost_fn=runner._die_cost_override(registries, study),
        context=study.name,
    )
    on_frontier = set(result.frontier_indices())
    table = Table(
        ["design", "total/unit", "RE/unit", "footprint mm^2", "frontier"],
        title=(
            f"Design space: {study.module_area:.0f} mm^2 @ {node.name}, "
            f"{study.quantity:.0f} units"
        ),
    )
    for candidate in result.top:
        scheme = "SoC" if candidate.scheme == "soc" else labels[candidate.technology]
        table.add_row(
            [f"{scheme} x{candidate.chiplets}", candidate.total, candidate.re,
             candidate.footprint,
             "*" if candidate.index in on_frontier else ""]
        )
    return result, table.render(), table.records()


@_executor("search")
def _run_search(
    runner: ScenarioRunner, study: SearchStudy, registries: ConfigRegistries
) -> tuple[Any, str]:
    from repro.search.engine import candidate_rows, run_search

    space = study.space()
    result = run_search(
        space,
        registries=registries,
        die_cost_fn=runner._die_cost_override(registries, study),
        context=study.name,
    )
    table = Table(
        ["design", "set", "total/unit", "RE/unit", "NRE total",
         "footprint mm^2"],
        title=(
            f"Design-space search: {result.n_candidates} candidates, "
            f"objectives {'/'.join(result.objectives)}"
        ),
    )
    for set_name, members in (
        ("frontier", result.frontier), ("top", result.top)
    ):
        for candidate in members:
            table.add_row(
                [candidate.label, set_name, candidate.total, candidate.re,
                 candidate.nre, candidate.footprint]
            )
    return (
        {"result": result, "frontier": result.frontier, "top": result.top},
        table.render(),
        candidate_rows(result),
    )


@_executor("sensitivity")
def _run_sensitivity(
    runner: ScenarioRunner, study: SensitivityStudy, registries: ConfigRegistries
) -> tuple[Any, str]:
    from repro.explore.sensitivity import system_tornado

    node = runner._node(registries, study.node, study.name)
    is_soc = study.technology == "soc"
    technology = (
        None if is_soc
        else runner._technology(registries, study.technology, study.name)
    )
    known = ("defect_density", "wafer_price", "d2d_fraction", "module_area")
    for parameter in study.parameters:
        if parameter not in known:
            raise ConfigError(
                f"{study.name}: unknown sensitivity parameter {parameter!r} "
                f"(known: {list(known)})"
            )

    def builder(parameter: str, scale: float) -> System:
        perturbed_node = node
        area = study.module_area
        d2d = study.d2d_fraction
        if parameter in ("defect_density", "wafer_price"):
            perturbed_node = node.evolve(
                **{parameter: getattr(node, parameter) * scale}
            )
        elif parameter == "d2d_fraction":
            d2d = study.d2d_fraction * scale
        elif parameter == "module_area":
            area = study.module_area * scale
        if is_soc:
            return soc_reference(area, perturbed_node)
        return partition_monolith(
            area, perturbed_node, study.n_chiplets, technology, d2d_fraction=d2d
        )

    results = system_tornado(
        study.parameters,
        builder,
        step=study.step,
        die_cost_fn=runner._die_cost_override(registries, study),
    )
    table = Table(
        ["parameter", "low", "base", "high", "swing", "swing %"],
        title=(
            f"Sensitivity tornado: {study.module_area:.0f} mm^2 @ "
            f"{node.name}, "
            + ("SoC" if is_soc else f"{technology.label} x{study.n_chiplets}")
            + f", +/-{study.step:.0%}"
        ),
    )
    for result in results:
        table.add_row(
            [result.parameter, result.low, result.base, result.high,
             result.swing, 100.0 * result.relative_swing]
        )
    return results, table.render(), table.records()


# -- reuse portfolios --------------------------------------------------


def _portfolio_table(
    title: str, costs: dict[str, Any], labels: list[str]
) -> Table:
    table = Table(["system"] + list(costs), title=title)
    for index, label in enumerate(labels):
        row: list[Any] = [label]
        for portfolio_costs in costs.values():
            row.append(portfolio_costs.costs[index].total)
        table.add_row(row)
    return table


@_executor("reuse")
def _run_reuse(
    runner: ScenarioRunner, study: ReuseStudy, registries: ConfigRegistries
) -> tuple[Any, str, tuple]:
    """A reuse study, priced in one batched pass per portfolio.

    Routed through :class:`~repro.engine.fastportfolio.PortfolioEngine`
    (bit-identical to the ``repro.reuse`` oracle); renders the absolute
    per-unit table plus the figure-style *normalized* breakdown —
    normalized, like Figs. 8/9, to the RE cost of the largest
    plain-technology system (SCMS/OCME), or, like Fig. 10, to the
    quantity-weighted average SoC RE cost (FSMC).  A named
    ``yield_model`` / ``wafer_geometry`` reprices every portfolio's RE
    costs; a non-empty ``volume_sweep`` additionally runs the
    vectorized closed-form sweep (one decomposition per variant, all
    scales solved at once) and appends per-scale rows to the sinks.
    """
    from repro.experiments.printers import reuse_table
    from repro.reuse.fsmc import FSMCConfig, build_fsmc
    from repro.reuse.ocme import OCMEConfig, build_ocme
    from repro.reuse.scms import SCMSConfig, build_scms

    technology = runner._technology(registries, study.technology, study.name)
    params = {key: _tupled(value) for key, value in dict(study.params).items()}
    for key in ("node", "center_node"):
        if key in params:
            params[key] = runner._node(registries, params[key], study.name)
    if "systems" in params:
        params["systems"] = tuple(_tupled(item) for item in params["systems"])

    if study.scheme == "scms":
        built = build_scms(SCMSConfig(**params), technology)
        labels = [f"{count}X" for count in built.grades()]
        portfolios = {
            "SoC": built.soc,
            technology.label: built.chiplet,
            f"{technology.label}+pkg": built.chiplet_package_reused,
        }
    elif study.scheme == "ocme":
        built = build_ocme(OCMEConfig(**params), technology)
        labels = built.labels()
        portfolios = {
            "SoC": built.soc,
            technology.label: built.mcm,
            f"{technology.label}+pkg": built.mcm_package_reused,
            f"{technology.label}+pkg+hetero": built.mcm_heterogeneous,
        }
    else:
        built = build_fsmc(FSMCConfig(**params), technology)
        labels = [system.name for system in built.multichip.systems]
        portfolios = {"SoC": built.soc, technology.label: built.multichip}

    engine = runner.portfolio_engine
    die_cost_fn = runner._die_cost_override(registries, study)
    costs = {
        variant: engine.evaluate(portfolio, die_cost_fn=die_cost_fn)
        for variant, portfolio in portfolios.items()
    }

    # Figure-style normalizer (Figs. 8/9: largest plain-tech RE;
    # Fig. 10: quantity-weighted average SoC RE).
    if study.scheme == "fsmc":
        soc_costs = costs["SoC"]
        reference = fold_sum(
            cost.re.total * system.quantity
            for system, cost in zip(built.soc.systems, soc_costs.costs)
        ) / built.soc.total_quantity
        reference_label = "average SoC RE"
    else:
        plain_variant = list(portfolios)[1]
        reference = costs[plain_variant].costs[-1].re.total
        reference_label = f"RE of the largest {plain_variant} system"

    absolute = _portfolio_table(
        f"Reuse study ({study.scheme.upper()}, {technology.label}): "
        "amortized total USD/unit",
        costs,
        labels,
    )
    normalized_rows = []
    sink_rows: list[dict[str, Any]] = []
    for variant, portfolio_costs in costs.items():
        for label, system, cost in zip(
            labels, portfolio_costs.portfolio.systems, portfolio_costs.costs
        ):
            re_norm = cost.re.normalized_to(reference)
            nre_norm = cost.amortized_nre.scaled(1.0 / reference)
            normalized_rows.append((label, variant, re_norm, nre_norm))
            sink_rows.append(
                {
                    "system": label,
                    "variant": variant,
                    "quantity": system.quantity,
                    "re": cost.re.total,
                    "nre_modules": cost.amortized_nre.modules,
                    "nre_chips": cost.amortized_nre.chips,
                    "nre_packages": cost.amortized_nre.packages,
                    "nre_d2d": cost.amortized_nre.d2d,
                    "total": cost.total,
                    "normalized_total": re_norm.total + nre_norm.total,
                }
            )
    normalized = reuse_table(
        f"Reuse study ({study.scheme.upper()}, {technology.label}): "
        f"normalized to the {reference_label}",
        normalized_rows,
    )
    text = absolute.render() + "\n\n" + normalized.render()

    solves = None
    if study.volume_sweep:
        # Closed-form vectorized sweep: one decomposition per variant,
        # every scale solved at once over the dense matrices.
        solves = {
            variant: engine.volume_solve(
                portfolio, study.volume_sweep, die_cost_fn=die_cost_fn
            )
            for variant, portfolio in portfolios.items()
        }
        sweep_table = Table(
            ["scale"] + list(portfolios),
            title=(
                f"Reuse study ({study.scheme.upper()}, {technology.label}): "
                "volume sweep, average total USD/unit"
            ),
        )
        for index, scale in enumerate(study.volume_sweep):
            sweep_table.add_row(
                [scale]
                + [solves[variant].point_average(index) for variant in portfolios]
            )
        text += "\n\n" + sweep_table.render()
        for variant, solve in solves.items():
            for index, scale in enumerate(solve.scales):
                average = solve.point_average(index)
                for label, quantity, total in zip(
                    labels,
                    solve.quantities[index],
                    solve.totals[index],
                ):
                    sink_rows.append(
                        {
                            "system": label,
                            "variant": variant,
                            "scale": scale,
                            "quantity": float(quantity),
                            "total": float(total),
                            "average_total": average,
                        }
                    )

    return (
        {
            "study": built,
            "costs": costs,
            "reference": reference,
            "volume_sweep": solves,
        },
        text,
        tuple(sink_rows),
    )


def run_scenario(
    spec: "ScenarioSpec | Mapping[str, Any]", engine: CostEngine | None = None
) -> ScenarioResult:
    """Convenience one-shot: build a runner and execute ``spec``."""
    return ScenarioRunner(engine=engine).run(spec)
