"""Architecture exploration and decision procedures (Section 6)."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.explore.partition": ("partition_monolith", "soc_reference"),
    "repro.explore.sweep": ("Sweep", "SweepPoint"),
    "repro.explore.decide": (
        "IntegrationChoice", "choose_integration",
        "multichip_payback_quantity", "granularity_marginal_utility",
        "package_reuse_break_even", "moore_limit_proximity",
    ),
    "repro.explore.heterogeneity": (
        "CenterNodeComparison", "compare_center_nodes",
    ),
    "repro.explore.sensitivity": ("SensitivityResult", "system_tornado"),
    "repro.explore.montecarlo": (
        "CostDistribution", "monte_carlo_cost", "monte_carlo_cost_naive",
    ),
    "repro.explore.pareto": ("pareto_frontier",),
    "repro.explore.uneven": (
        "PartitionAssignment", "balance_modules", "partition_modules",
    ),
    "repro.explore.roadmap": (
        "RoadmapAssumptions", "RoadmapResult", "compare_on_roadmap",
        "ramp_volumes", "roadmap_cost",
    ),
    "repro.explore.requirements": (
        "max_affordable_area", "max_d2d_fraction", "required_defect_density",
    ),
})
