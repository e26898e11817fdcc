"""Assembly flow arithmetic: Eqs. (4) and (5) of the paper.

Three flows are modelled:

* **direct attach** — chips flipped straight onto the substrate (SoC
  package and MCM).  The substrate is committed when chips are attached,
  so a failed attach wastes substrate, assembly fee and KGDs.
* **carrier, chip-last** — the carrier (RDL or silicon interposer) is
  fabricated and tested first, then chips are bonded to the known-good
  carrier, then the populated carrier is attached to the substrate.
  This is Eq. (4); the paper's default for all experiments.
* **carrier, chip-first** — chips are committed before the carrier is
  formed (InFO chip-first), so carrier fabrication losses also destroy
  KGDs.  This is the first line of Eq. (5).

Every function returns the :class:`PackagingAffine` coefficients of
one attempt: fixed raw and defect spend plus the expected retry count
that multiplies the committed KGD value (the paper's wasted KGD).  The
per-area inputs (substrate and carrier cost, carrier yield) may be
numpy columns; the chip count and the bonding yields are scalars, so
each ``**n_chips`` power is one scalar per call.
"""

from __future__ import annotations

import enum

from repro.errors import InvalidParameterError
from repro.packaging.base import PackagingAffine, bounds


class AssemblyFlow(enum.Enum):
    """Order of chip commitment relative to carrier formation."""

    CHIP_LAST = "chip-last"
    CHIP_FIRST = "chip-first"


def _check_yield(value: float, label: str) -> None:
    for bound in bounds(value):
        if not 0.0 < bound <= 1.0:
            raise InvalidParameterError(
                f"{label} must be in (0, 1], got {bound}"
            )


def _check_nonneg(value: float, label: str) -> None:
    smallest, _largest = bounds(value)
    if smallest < 0:
        raise InvalidParameterError(f"{label} must be >= 0, got {smallest}")


def direct_attach_cost(
    substrate_cost: float,
    assembly_fee: float,
    n_chips: int,
    chip_attach_yield: float,
    final_yield: float,
) -> PackagingAffine:
    """SoC/MCM flow: chips attach directly to the substrate.

    One assembly attempt spends the substrate, the assembly fee and the
    KGDs; the attempt succeeds with probability
    ``chip_attach_yield**n_chips * final_yield``.
    """
    _check_nonneg(substrate_cost, "substrate cost")
    _check_nonneg(assembly_fee, "assembly fee")
    _check_yield(chip_attach_yield, "chip attach yield")
    _check_yield(final_yield, "final yield")
    if n_chips < 1:
        raise InvalidParameterError(f"n_chips must be >= 1, got {n_chips}")

    success = chip_attach_yield**n_chips * final_yield
    retries = 1.0 / success - 1.0
    raw = substrate_cost + assembly_fee
    return PackagingAffine(
        raw_package=raw, package_defects=raw * retries, wasted_slope=retries
    )


def carrier_chip_last_cost(
    carrier_cost: float,
    carrier_yield: float,
    substrate_cost: float,
    assembly_fee: float,
    n_chips: int,
    chip_attach_yield: float,
    carrier_attach_yield: float,
) -> PackagingAffine:
    """Eq. (4): chip-last flow on a carrier (RDL / silicon interposer).

    Args:
        carrier_cost: Raw (defect-free) cost of one carrier, USD.
        carrier_yield: y1, the carrier's own fabrication yield.
        substrate_cost: Cost of the organic substrate underneath.
        assembly_fee: Fixed assembly + final-test fee per attempt.
        n_chips: Number of chips bonded to the carrier.
        chip_attach_yield: y2, per-chip bonding yield on the carrier.
        carrier_attach_yield: y3, carrier-to-substrate bonding yield.
    """
    _check_nonneg(carrier_cost, "carrier cost")
    _check_yield(carrier_yield, "carrier yield")
    _check_nonneg(substrate_cost, "substrate cost")
    _check_nonneg(assembly_fee, "assembly fee")
    _check_yield(chip_attach_yield, "chip attach yield")
    _check_yield(carrier_attach_yield, "carrier attach yield")
    if n_chips < 1:
        raise InvalidParameterError(f"n_chips must be >= 1, got {n_chips}")

    y2n = chip_attach_yield**n_chips
    y3 = carrier_attach_yield
    y1 = carrier_yield

    raw = carrier_cost + substrate_cost + assembly_fee
    carrier_defects = carrier_cost * (1.0 / (y1 * y2n * y3) - 1.0)
    substrate_defects = substrate_cost * (1.0 / y3 - 1.0)
    retries = 1.0 / (y2n * y3) - 1.0
    return PackagingAffine(
        raw_package=raw,
        package_defects=carrier_defects + substrate_defects
        + assembly_fee * retries,
        wasted_slope=retries,
    )


def carrier_chip_first_cost(
    carrier_cost: float,
    carrier_yield: float,
    substrate_cost: float,
    assembly_fee: float,
    n_chips: int,
    chip_attach_yield: float,
    carrier_attach_yield: float,
) -> PackagingAffine:
    """Eq. (5), chip-first: KGDs committed before carrier formation.

    The whole stack (chips + carrier + fee) must survive carrier
    fabrication (y1), chip bonding (y2^n) and substrate attach (y3), so
    KGD waste also carries the 1/y1 factor — the "huge waste on KGDs"
    the paper attributes to chip-first packaging.
    """
    _check_nonneg(carrier_cost, "carrier cost")
    _check_yield(carrier_yield, "carrier yield")
    _check_nonneg(substrate_cost, "substrate cost")
    _check_nonneg(assembly_fee, "assembly fee")
    _check_yield(chip_attach_yield, "chip attach yield")
    _check_yield(carrier_attach_yield, "carrier attach yield")
    if n_chips < 1:
        raise InvalidParameterError(f"n_chips must be >= 1, got {n_chips}")

    y2n = chip_attach_yield**n_chips
    chain = carrier_yield * y2n * carrier_attach_yield

    raw = carrier_cost + substrate_cost + assembly_fee
    retries = 1.0 / chain - 1.0
    substrate_defects = substrate_cost * (1.0 / carrier_attach_yield - 1.0)
    return PackagingAffine(
        raw_package=raw,
        package_defects=(carrier_cost + assembly_fee) * retries + substrate_defects,
        wasted_slope=retries,
    )
