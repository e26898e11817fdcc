"""The Chiplet Actuary cost model proper.

Module / Chip / System abstraction (Eq. 3), RE cost (Fig. 4 itemization,
Eqs. 4-5), NRE cost (Eqs. 6-8), amortization over production quantity,
and total-cost assembly.
"""

# An export that equals a sibling submodule's name stays eager (see
# repro.lazy).
from repro.core.amortize import amortize
from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.core.module": ("Module", "D2D_MODULE_NAME"),
    "repro.core.chip": ("Chip",),
    "repro.core.system": ("System", "soc", "multichip"),
    "repro.core.package_design": ("PackageDesign",),
    "repro.core.breakdown": ("RECost", "ChipREDetail", "NRECost", "TotalCost"),
    "repro.core.re_cost": ("compute_re_cost", "chip_kgd_cost"),
    "repro.core.nre_cost": ("compute_system_nre",),
    "repro.core.amortize": ("amortize", "amortized_unit_nre"),
    "repro.core.total": ("compute_total_cost",),
})
