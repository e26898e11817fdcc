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

Every public name below resolves on first use (see ``repro.lazy``), so
``import repro`` itself loads only that helper.  docs/ARCHITECTURE.md has the
layer diagram; tests/test_paper_claims.py checks every figure the paper
quotes against the reproduction.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.errors": (
        "ChipletActuaryError", "ConfigError", "EmptySystemError",
        "InvalidParameterError", "ReticleLimitError", "UnknownNodeError",
    ),
    "repro.process.catalog": ("NODES", "get_node", "list_nodes"),
    "repro.process.node": ("ProcessNode",),
    "repro.process.scaling": ("area_scale_factor", "scale_area"),
    "repro.process.defects": ("DefectLearningCurve",),
    "repro.yieldmodel.models": (
        "NegativeBinomialYield", "SeedsYield", "yield_model_for_node",
    ),
    "repro.yieldmodel.alternatives": (
        "PoissonYield", "MurphyYield", "ExponentialYield", "BoseEinsteinYield",
        "GrossYield",
    ),
    "repro.yieldmodel.composite": ("SerialYield", "overall_yield"),
    "repro.wafer.geometry": (
        "RETICLE_LIMIT_MM2", "WaferGeometry", "dies_per_wafer",
    ),
    "repro.wafer.die": ("DieSpec", "DieCost", "die_cost"),
    "repro.d2d.interface": ("D2DInterface", "D2D_CATALOG"),
    "repro.d2d.overhead": ("FractionOverhead", "BandwidthOverhead"),
    "repro.packaging.base": ("IntegrationTech", "PackagingCost"),
    "repro.packaging.assembly": ("AssemblyFlow",),
    "repro.packaging.soc": ("SoCPackage", "soc_package"),
    "repro.packaging.mcm": ("MCM", "mcm"),
    "repro.packaging.info": ("InFO", "info"),
    "repro.packaging.interposer": ("Interposer25D", "interposer_25d"),
    "repro.core.module": ("Module",),
    "repro.core.chip": ("Chip",),
    "repro.core.system": ("System", "soc", "multichip", "chiplet"),
    "repro.core.package_design": ("PackageDesign",),
    "repro.core.breakdown": ("RECost", "NRECost", "TotalCost"),
    "repro.core.re_cost": ("compute_re_cost",),
    "repro.core.nre_cost": ("compute_system_nre",),
    "repro.core.total": ("compute_total_cost",),
    "repro.reuse.portfolio": ("Portfolio",),
    "repro.reuse.scms": ("SCMSConfig", "build_scms"),
    "repro.reuse.ocme": ("OCMEConfig", "build_ocme"),
    "repro.reuse.fsmc": ("FSMCConfig", "build_fsmc", "collocation_count"),
    "repro.explore.partition": ("partition_monolith", "soc_reference"),
    "repro.explore.decide": (
        "choose_integration", "multichip_payback_quantity",
        "granularity_marginal_utility", "package_reuse_break_even",
        "moore_limit_proximity",
    ),
    "repro.engine.costengine": ("CostEngine",),
    "repro.engine.fastportfolio": ("PortfolioEngine",),
    "repro.wafer.diecache": ("cached_die_cost",),
    "repro.registry.nodes": ("node_registry", "register_node"),
    "repro.registry.d2d": ("register_d2d",),
    "repro.registry.technologies": (
        "register_technology", "technology_registry",
    ),
    "repro.registry.geometries": (
        "register_wafer_geometry", "wafer_geometry_registry",
    ),
    "repro.registry.yieldmodels": (
        "register_yield_model", "yield_model_registry",
    ),
    "repro.scenario.runner": ("ScenarioRunner", "run_scenario"),
    "repro.scenario.spec": ("ScenarioSpec", "load_scenario", "save_scenario"),
    "repro.search.space": ("DesignSpace",),
    "repro.search.engine": ("SearchResult", "run_search"),
    "repro.analysis.report": ("AnalysisReport",),
    "repro.analysis.driver": ("analyze_paths",),
    "repro.analysis.registry": ("all_rule_ids",),
    "repro.explore.costquery": ("CostRequest", "CostResult"),
    "repro.service.schemas": ("ScenarioRequest", "ScenarioRunResult"),
})

__version__ = "1.0.0"
