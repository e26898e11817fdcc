"""Packaging and assembly cost parameters.

The paper takes packaging cost from the IC Knowledge "Assembly and Test
Cost and Price Model" (commercial, reference [5]) and in-house data.  We
substitute public estimates:

* organic build-up (FCBGA-class) substrate cost is modelled per mm^2 per
  metal layer, anchored so a ~5000 mm^2, 10-layer server substrate lands
  in the tens of dollars;
* fixed assembly cost covers lid/ball attach, molding and final package
  test, and is larger for more complex flows;
* bonding yields follow the paper's assembly discussion: chip-attach
  yield (y2) applies once per chip, carrier-attach yield (y3) once per
  package (Eq. 4).

Because every experiment reports normalized cost, the calibration targets
are the *shares* the paper quotes (e.g. packaging 24-30% of an AMD-style
MCM, >25% overhead for MCM at 14 nm, ~50% packaging share for 2.5D at
7 nm / 900 mm^2); tests/test_paper_claims.py asserts each with its band.
"""

from __future__ import annotations

PACKAGING_DEFAULTS: dict[str, dict[str, float]] = {
    # Single-die flip-chip package for a monolithic SoC.
    "soc": {
        "substrate_layers": 6,
        "substrate_area_factor": 3.5,   # package footprint / die area
        "fixed_assembly_cost": 5.0,     # USD per package
        "chip_attach_yield": 0.995,     # y2
        "final_yield": 0.995,           # y3 (final assembly + test)
        "nre_per_mm2": 2_000.0,         # Kp
        "nre_fixed": 0.5e6,             # Cp
    },
    # Multi-chip module on an organic substrate.  Needs extra routing
    # layers (the paper's substrate growth factor).
    "mcm": {
        "substrate_layers": 10,
        "substrate_area_factor": 4.0,
        "fixed_assembly_cost": 10.0,
        "chip_attach_yield": 0.995,
        "final_yield": 0.99,
        "nre_per_mm2": 3_000.0,
        "nre_fixed": 1.0e6,
    },
    # Integrated fan-out: chips on an RDL carrier, RDL on a substrate.
    "info": {
        "substrate_layers": 8,
        "substrate_area_factor": 4.0,
        "rdl_area_factor": 1.2,         # RDL area / total die area
        "fixed_assembly_cost": 15.0,
        "chip_attach_yield": 0.99,      # y2, chip-to-RDL
        "carrier_attach_yield": 0.98,   # y3, RDL-to-substrate + final
        "nre_per_mm2": 4_000.0,
        "nre_fixed": 2.0e6,
    },
    # 2.5D: chips on a silicon interposer, interposer on a substrate.
    "interposer": {
        "substrate_layers": 10,
        "substrate_area_factor": 4.0,
        "interposer_area_factor": 1.1,  # interposer area / total die area
        "fixed_assembly_cost": 20.0,
        "chip_attach_yield": 0.99,      # y2, chip-on-wafer microbump
        "carrier_attach_yield": 0.98,   # y3, interposer-to-substrate
        "nre_per_mm2": 5_000.0,
        "nre_fixed": 5.0e6,
    },
}

# 3D stacking (an extension beyond the paper, repro.packaging.stacked3d):
# documented public estimates in the same spirit as the table above.
STACK3D_DEFAULTS: dict[str, float] = {
    "substrate_layers": 6,
    "substrate_area_factor": 3.5,
    "fixed_assembly_cost": 15.0,
    "tsv_cost_per_mm2": 0.05,       # TSV + bond-interface processing
    "stack_bond_yield": 0.98,       # per stacked die (hybrid bonding)
    "final_yield": 0.99,
    "nre_per_mm2": 4_000.0,
    "nre_fixed": 8.0e6,             # TSV floorplan + thermal co-design
}

# Registry names of the paper's multi-chip technologies, in paper order.
MULTICHIP_TECH_NAMES = ("mcm", "info", "2.5d")

# USD per mm^2 per metal layer of organic build-up substrate.
SUBSTRATE_COST_PER_MM2_PER_LAYER = 0.001
