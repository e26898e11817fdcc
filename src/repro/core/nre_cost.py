"""Non-recurring-engineering cost engine (Eqs. 6-8).

For one chip (Eq. 6)::

    NRE(chip) = Kc * S_chip  +  sum over modules of Km * S_module  +  C

with the module term reported under ``modules`` and the rest under
``chips`` so that reuse studies can show which part is saved.  The D2D
interface is a special module designed once per process node (the
C_D2D_n term of Eq. 8); its silicon area still inflates S_chip, so the
chip-design term automatically pays for integrating it.

This module prices a *single* system owning all of its NRE (Eq. 7 for a
one-system group).  Sharing across systems — chiplet reuse (Eq. 8),
module reuse, package reuse — is resolved by ``repro.reuse.portfolio``,
which amortizes each distinct design object over every system that
references it.
"""

from __future__ import annotations

from repro.canon import fold_sum
from repro.core.breakdown import NRECost
from repro.core.chip import Chip
from repro.core.system import System


def module_nre(chip: Chip) -> float:
    """Km * Sm summed over the distinct modules of one chip."""
    km = chip.node.km_per_mm2
    return fold_sum(
        km * module.area_at(chip.node) for module in chip.unique_modules()
    )


def chip_design_nre(chip: Chip) -> float:
    """Kc * Sc + C for one chip (excludes its modules' NRE)."""
    node = chip.node
    return node.kc_per_mm2 * chip.area + node.fixed_chip_nre


def package_nre(system: System) -> float:
    """Kp * Sp + Cp for the system's package."""
    if system.package is not None:
        return system.package.nre
    return system.integration.package_nre(system.chip_areas)


def d2d_nre(system: System) -> float:
    """D2D interface design cost, once per chiplet node (Eq. 8)."""
    return fold_sum(node.d2d_interface_nre for node in system.chiplet_nodes())


def compute_system_nre(system: System) -> NRECost:
    """Total NRE of one system designed from scratch (nothing shared)."""
    modules = 0.0
    chips = 0.0
    for chip, _count in system.unique_chips():
        modules += module_nre(chip)
        chips += chip_design_nre(chip)
    return NRECost(
        modules=modules,
        chips=chips,
        packages=package_nre(system),
        d2d=d2d_nre(system),
    )
