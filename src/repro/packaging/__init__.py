"""Packaging and multi-chip integration technologies."""

# An export that equals a sibling submodule's name stays eager (see
# repro.lazy).
from repro.packaging.mcm import mcm
from repro.packaging.info import info
from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.packaging.base": (
        "IntegrationTech", "PackagingAffine", "PackagingColumns",
        "PackagingCost",
    ),
    "repro.packaging.substrate": ("OrganicSubstrate",),
    "repro.packaging.assembly": (
        "AssemblyFlow", "direct_attach_cost", "carrier_chip_last_cost",
        "carrier_chip_first_cost",
    ),
    "repro.packaging.soc": ("SoCPackage", "soc_package"),
    "repro.packaging.mcm": ("MCM", "mcm"),
    "repro.packaging.info": ("InFO", "info"),
    "repro.packaging.interposer": ("Interposer25D", "interposer_25d"),
    "repro.packaging.stacked3d": ("Stacked3D", "stacked_3d"),
    "repro.packaging.testcost": (
        "TestCostModel", "TestedRECost", "compute_tested_re_cost",
    ),
})
