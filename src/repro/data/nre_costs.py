"""Non-recurring-engineering cost parameters.

The paper's NRE model (Eq. 6) is ``Cost = Kc*Sc + sum(Km*Sm) + C`` where

* ``Km`` — design cost per mm^2 attributable to *module* work (RTL design,
  block verification),
* ``Kc`` — design cost per mm^2 attributable to *chip* work (system
  verification, physical design),
* ``C``  — fixed cost per chip independent of area (full mask set, IP
  licensing, base tape-out engineering).

The paper sources these from in-house data which is not public.  We
substitute IBS-style public design-cost estimates (total design cost of a
flagship SoC per node: 28nm $51M, 16nm $106M, 10nm $174M, 7nm $298M,
5nm $542M) expressed as a per-node *design-cost index* relative to 5 nm,
and calibrate the 5 nm anchors so that the paper's Figure 6 structure
reproduces:

* RE share of total cost for an 800 mm^2 5 nm SoC at 500k units ~ 22%,
* chip-NRE share of a 2-chiplet MCM at 500k units ~ 36%,
* multi-chip payback quantity for the 5 nm system ~ 2M units.

tests/test_paper_claims.py asserts each calibration target with its band.
"""

from __future__ import annotations

# Design-cost index relative to the 5 nm node (dimensionless).  Derived
# from IBS total-design-cost estimates; packaging nodes carry no logic
# design cost.
DESIGN_COST_INDEX: dict[str, float] = {
    "3nm": 1.25,
    "5nm": 1.00,
    "7nm": 0.55,
    "10nm": 0.32,
    "12nm": 0.24,
    "14nm": 0.22,
    "16nm": 0.196,
    "22nm": 0.13,
    "28nm": 0.094,
    "40nm": 0.070,
    "65nm": 0.052,
    "90nm": 0.040,
    "rdl": 0.0,
    "si": 0.0,
}

# Full mask-set cost per node in USD (public trade-press estimates; the
# RDL / interposer entries are the few-layer BEOL mask sets used by
# advanced packaging).
MASK_SET_COSTS: dict[str, float] = {
    "3nm": 35e6,
    "5nm": 25e6,
    "7nm": 14e6,
    "10nm": 6e6,
    "12nm": 3e6,
    "14nm": 2.8e6,
    "16nm": 2.5e6,
    "22nm": 2.0e6,
    "28nm": 1.5e6,
    "40nm": 0.85e6,
    "65nm": 0.5e6,
    "90nm": 0.3e6,
    "rdl": 0.2e6,
    "si": 0.5e6,
}

# 5 nm anchors, in USD.  Every other logic node scales these by its
# design-cost index (mask costs come from the explicit table above).
NRE_ANCHOR_5NM: dict[str, float] = {
    # Km: module design cost per mm^2 (RTL + block verification).
    "km_per_mm2": 700_000.0,
    # Kc: chip design cost per mm^2 (system verification + physical design).
    "kc_per_mm2": 180_000.0,
    # Fixed per-chip cost C excluding the mask set (IP licensing, base
    # tape-out engineering).  C_total = ip_fixed + mask_set_cost.
    "ip_fixed": 175e6,
    # One-time cost of designing the D2D interface at this node.
    "d2d_interface": 25e6,
}
