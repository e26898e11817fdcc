"""Packaging and multi-chip integration technologies."""

from repro.packaging.base import IntegrationTech, PackagingAffine, PackagingCost
from repro.packaging.substrate import OrganicSubstrate
from repro.packaging.assembly import (
    AssemblyFlow,
    direct_attach_cost,
    carrier_chip_last_cost,
    carrier_chip_first_cost,
)
from repro.packaging.soc import SoCPackage, soc_package
from repro.packaging.mcm import MCM, mcm
from repro.packaging.info import InFO, info
from repro.packaging.interposer import Interposer25D, interposer_25d
from repro.packaging.stacked3d import Stacked3D, stacked_3d
from repro.packaging.testcost import (
    TestCostModel,
    TestedRECost,
    compute_tested_re_cost,
)

__all__ = [
    "Stacked3D",
    "stacked_3d",
    "TestCostModel",
    "TestedRECost",
    "compute_tested_re_cost",
    "IntegrationTech",
    "PackagingAffine",
    "PackagingCost",
    "OrganicSubstrate",
    "AssemblyFlow",
    "direct_attach_cost",
    "carrier_chip_last_cost",
    "carrier_chip_first_cost",
    "SoCPackage",
    "soc_package",
    "MCM",
    "mcm",
    "InFO",
    "info",
    "Interposer25D",
    "interposer_25d",
]
