"""Package design: a sized, reusable package.

Normally a system's package is sized for exactly the chips it holds.  A
*reused* package is sized once — for the largest collocation it must
accommodate — and smaller systems assembled in it pay for the oversized
substrate/carrier (the paper's Section 5.1: package reuse "wastes RE
cost for smaller systems").  Package designs compare by identity; every
system referencing the same design shares its NRE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvalidParameterError
from repro.packaging.base import IntegrationTech, PackagingAffine, PackagingCost


@dataclass(frozen=True, eq=False)
class PackageDesign:
    """One package design sized for ``socket_areas``.

    Attributes:
        name: Human-readable label.
        integration: The integration technology of the package.
        socket_areas: Chip areas (mm^2) the package is designed to hold;
            this fixes the substrate/carrier size and the package NRE.
    """

    name: str
    integration: IntegrationTech
    socket_areas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.socket_areas:
            raise InvalidParameterError(
                f"package design {self.name!r} needs at least one socket"
            )
        for area in self.socket_areas:
            if area <= 0:
                raise InvalidParameterError(
                    f"package design {self.name!r}: socket areas must be > 0"
                )

    @staticmethod
    def for_chips(
        name: str, integration: IntegrationTech, chip_areas: Sequence[float]
    ) -> "PackageDesign":
        return PackageDesign(
            name=name, integration=integration, socket_areas=tuple(chip_areas)
        )

    @property
    def footprint(self) -> float:
        """Substrate footprint in mm^2 of the designed package."""
        return self.integration.package_area(self.socket_areas)

    def accommodates(self, chip_areas: Sequence[float]) -> bool:
        """True when the given chips fit the designed sockets.

        Uses a size-ordered greedy match: each chip (largest first) must
        fit in a distinct socket at least as large.
        """
        if len(chip_areas) > len(self.socket_areas):
            return False
        sockets = sorted(self.socket_areas, reverse=True)
        chips = sorted(chip_areas, reverse=True)
        return all(chip <= socket + 1e-9 for chip, socket in zip(chips, sockets))

    def packaging_affine(self, chip_areas: Sequence[float]) -> PackagingAffine:
        """Packaging cost coefficients for chips assembled in this design.

        Carrier and substrate are sized by the *design*; bonding yields
        follow the *actual* chip count.
        """
        if not self.accommodates(chip_areas):
            raise InvalidParameterError(
                f"package design {self.name!r} cannot hold chips "
                f"{[f'{a:.0f}' for a in chip_areas]} mm^2"
            )
        return self.integration.packaging_affine(
            chip_areas, sized_for=self.socket_areas
        )

    def packaging_cost(
        self, chip_areas: Sequence[float], kgd_cost: float
    ) -> PackagingCost:
        """Recurring packaging cost for chips assembled in this design."""
        return self.packaging_affine(chip_areas).packaging_cost(kgd_cost)

    @property
    def nre(self) -> float:
        """One-time design cost of this package."""
        return self.integration.package_nre(self.socket_areas)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sockets = ", ".join(f"{a:.0f}" for a in self.socket_areas)
        return (
            f"PackageDesign({self.name!r}, {self.integration.label}, "
            f"sockets=[{sockets}] mm^2)"
        )
