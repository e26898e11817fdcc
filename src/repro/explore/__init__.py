"""Architecture exploration and decision procedures (Section 6)."""

from repro.explore.partition import partition_monolith, soc_reference
from repro.explore.sweep import Sweep, SweepPoint
from repro.explore.decide import (
    IntegrationChoice,
    choose_integration,
    multichip_payback_quantity,
    granularity_marginal_utility,
    package_reuse_break_even,
    moore_limit_proximity,
)
from repro.explore.heterogeneity import CenterNodeComparison, compare_center_nodes
from repro.explore.sensitivity import SensitivityResult, system_tornado
from repro.explore.montecarlo import (
    CostDistribution,
    monte_carlo_cost,
    monte_carlo_cost_naive,
)
from repro.explore.pareto import pareto_frontier
from repro.explore.uneven import (
    PartitionAssignment,
    balance_modules,
    partition_modules,
)
from repro.explore.roadmap import (
    RoadmapAssumptions,
    RoadmapResult,
    compare_on_roadmap,
    ramp_volumes,
    roadmap_cost,
)
from repro.explore.requirements import (
    max_affordable_area,
    max_d2d_fraction,
    required_defect_density,
)

__all__ = [
    "RoadmapAssumptions",
    "RoadmapResult",
    "compare_on_roadmap",
    "ramp_volumes",
    "roadmap_cost",
    "max_affordable_area",
    "max_d2d_fraction",
    "required_defect_density",
    "pareto_frontier",
    "PartitionAssignment",
    "balance_modules",
    "partition_modules",
    "partition_monolith",
    "soc_reference",
    "Sweep",
    "SweepPoint",
    "IntegrationChoice",
    "choose_integration",
    "multichip_payback_quantity",
    "granularity_marginal_utility",
    "package_reuse_break_even",
    "moore_limit_proximity",
    "CenterNodeComparison",
    "compare_center_nodes",
    "SensitivityResult",
    "system_tornado",
    "CostDistribution",
    "monte_carlo_cost",
    "monte_carlo_cost_naive",
]
