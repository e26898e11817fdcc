"""Chiplet Actuary: a quantitative cost model for multi-chiplet systems.

Reproduction of Feng & Ma, "Chiplet Actuary: A Quantitative Cost Model
and Multi-Chiplet Architecture Exploration", DAC 2022.

Quickstart::

    from repro import (
        Module, soc, multichip, chiplet, get_node,
        soc_package, mcm, compute_re_cost, compute_total_cost,
        FractionOverhead,
    )

    n5 = get_node("5nm")
    design = Module("compute", 800.0, n5)
    monolithic = soc("mono", [design], n5, soc_package(), quantity=2e6)
    print(compute_total_cost(monolithic).total)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.errors import (
    ChipletActuaryError,
    ConfigError,
    EmptySystemError,
    InvalidParameterError,
    ReticleLimitError,
    UnknownNodeError,
)
from repro.process import (
    NODES,
    ProcessNode,
    get_node,
    list_nodes,
    area_scale_factor,
    scale_area,
    DefectLearningCurve,
)
from repro.yieldmodel import (
    NegativeBinomialYield,
    SeedsYield,
    PoissonYield,
    MurphyYield,
    ExponentialYield,
    BoseEinsteinYield,
    GrossYield,
    yield_model_for_node,
    SerialYield,
    overall_yield,
)
from repro.wafer import (
    RETICLE_LIMIT_MM2,
    WaferGeometry,
    dies_per_wafer,
    DieSpec,
    DieCost,
    die_cost,
)
from repro.d2d import (
    D2DInterface,
    D2D_CATALOG,
    FractionOverhead,
    BandwidthOverhead,
)
from repro.packaging import (
    IntegrationTech,
    PackagingCost,
    AssemblyFlow,
    SoCPackage,
    soc_package,
    MCM,
    mcm,
    InFO,
    info,
    Interposer25D,
    interposer_25d,
)
from repro.core import (
    Module,
    Chip,
    System,
    soc,
    multichip,
    PackageDesign,
    RECost,
    NRECost,
    TotalCost,
    compute_re_cost,
    compute_system_nre,
    compute_total_cost,
)
from repro.core.system import chiplet
from repro.reuse import (
    Portfolio,
    SCMSConfig,
    build_scms,
    OCMEConfig,
    build_ocme,
    FSMCConfig,
    build_fsmc,
    collocation_count,
)
from repro.explore import (
    partition_monolith,
    soc_reference,
    choose_integration,
    multichip_payback_quantity,
    granularity_marginal_utility,
    package_reuse_break_even,
    moore_limit_proximity,
)
from repro.engine import (
    CostEngine,
    PortfolioEngine,
    cached_die_cost,
    default_engine,
)
from repro.registry import (
    node_registry,
    register_d2d,
    register_node,
    register_technology,
    register_wafer_geometry,
    register_yield_model,
    technology_registry,
    wafer_geometry_registry,
    yield_model_registry,
)
from repro.scenario import (
    ScenarioRunner,
    ScenarioSpec,
    load_scenario,
    run_scenario,
    save_scenario,
)
from repro.search import DesignSpace, SearchResult, run_search
from repro.analysis import AnalysisReport, analyze_paths, all_rule_ids
from repro.service import (
    CostRequest,
    CostResult,
    ScenarioRequest,
    ScenarioRunResult,
    SearchRequest,
    SearchRunResult,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ChipletActuaryError",
    "ConfigError",
    "EmptySystemError",
    "InvalidParameterError",
    "ReticleLimitError",
    "UnknownNodeError",
    # process
    "NODES",
    "ProcessNode",
    "get_node",
    "list_nodes",
    "area_scale_factor",
    "scale_area",
    "DefectLearningCurve",
    # yield
    "NegativeBinomialYield",
    "SeedsYield",
    "PoissonYield",
    "MurphyYield",
    "ExponentialYield",
    "BoseEinsteinYield",
    "GrossYield",
    "yield_model_for_node",
    "SerialYield",
    "overall_yield",
    # wafer
    "RETICLE_LIMIT_MM2",
    "WaferGeometry",
    "dies_per_wafer",
    "DieSpec",
    "DieCost",
    "die_cost",
    # d2d
    "D2DInterface",
    "D2D_CATALOG",
    "FractionOverhead",
    "BandwidthOverhead",
    # packaging
    "IntegrationTech",
    "PackagingCost",
    "AssemblyFlow",
    "SoCPackage",
    "soc_package",
    "MCM",
    "mcm",
    "InFO",
    "info",
    "Interposer25D",
    "interposer_25d",
    # core
    "Module",
    "Chip",
    "System",
    "soc",
    "multichip",
    "chiplet",
    "PackageDesign",
    "RECost",
    "NRECost",
    "TotalCost",
    "compute_re_cost",
    "compute_system_nre",
    "compute_total_cost",
    # reuse
    "Portfolio",
    "SCMSConfig",
    "build_scms",
    "OCMEConfig",
    "build_ocme",
    "FSMCConfig",
    "build_fsmc",
    "collocation_count",
    # explore
    "partition_monolith",
    "soc_reference",
    "choose_integration",
    "multichip_payback_quantity",
    "granularity_marginal_utility",
    "package_reuse_break_even",
    "moore_limit_proximity",
    # engine
    "CostEngine",
    "PortfolioEngine",
    "cached_die_cost",
    "default_engine",
    # registries
    "node_registry",
    "technology_registry",
    "register_node",
    "register_technology",
    "register_d2d",
    "register_yield_model",
    "register_wafer_geometry",
    "yield_model_registry",
    "wafer_geometry_registry",
    # scenarios
    "ScenarioSpec",
    "ScenarioRunner",
    "run_scenario",
    "load_scenario",
    "save_scenario",
    # design-space search
    "DesignSpace",
    "SearchResult",
    "run_search",
    # contract linter
    "AnalysisReport",
    "analyze_paths",
    "all_rule_ids",
    # service API
    "CostRequest",
    "CostResult",
    "ScenarioRequest",
    "ScenarioRunResult",
    "SearchRequest",
    "SearchRunResult",
]
