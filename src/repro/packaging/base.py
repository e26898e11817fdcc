"""Integration technology interface and packaging cost breakdown.

Every integration technology (single-die SoC package, MCM, InFO, 2.5D)
answers three questions:

* how big is the package for a given set of chips,
* what does packaging cost, itemized the paper's way (raw package /
  package defects / wasted KGD — the last three bars of Figure 4),
* what is the package NRE (the Kp*Sp + Cp term of Eqs. 7-8).

Every assembly flow prices one attempt as fixed spend plus the KGD
value times an expected retry count (Eqs. 4-5), so each technology
answers the cost question with the coefficients of that affine form
(:class:`PackagingAffine`); the itemized cost at a given KGD value is
derived from them in exactly one place.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.errors import EmptySystemError, InvalidParameterError


@dataclass(frozen=True)
class PackagingCost:
    """Recurring packaging cost of one system, itemized (USD).

    Attributes:
        raw_package: Carrier(s) + substrate + assembly fee, defect-free.
        package_defects: Extra carrier/substrate/assembly spend caused by
            packaging yield loss.
        wasted_kgd: Known-good-die cost destroyed by packaging failures.
    """

    raw_package: float
    package_defects: float
    wasted_kgd: float

    def __post_init__(self) -> None:
        for label in ("raw_package", "package_defects", "wasted_kgd"):
            if getattr(self, label) < 0:
                raise InvalidParameterError(f"{label} must be >= 0")

    @property
    def total(self) -> float:
        return self.raw_package + self.package_defects + self.wasted_kgd

    def scaled(self, factor: float) -> "PackagingCost":
        """Component-wise scaling (used for normalization)."""
        return PackagingCost(
            raw_package=self.raw_package * factor,
            package_defects=self.package_defects * factor,
            wasted_kgd=self.wasted_kgd * factor,
        )

    def __add__(self, other: "PackagingCost") -> "PackagingCost":
        return PackagingCost(
            raw_package=self.raw_package + other.raw_package,
            package_defects=self.package_defects + other.package_defects,
            wasted_kgd=self.wasted_kgd + other.wasted_kgd,
        )


@dataclass(frozen=True)
class PackagingAffine:
    """Packaging cost as an affine function of the committed KGD value.

    Attributes:
        raw_package: The KGD-independent raw package spend, USD.
        package_defects: The KGD-independent defect spend, USD.
        wasted_slope: Expected retries — KGD waste per USD of KGD value.
    """

    raw_package: float
    package_defects: float
    wasted_slope: float

    def wasted_kgd(self, kgd_cost: float) -> float:
        return kgd_cost * self.wasted_slope

    def packaging_cost(self, kgd_cost: float) -> PackagingCost:
        """The full itemization for one KGD value."""
        if kgd_cost < 0:
            raise InvalidParameterError(f"KGD cost must be >= 0, got {kgd_cost}")
        return PackagingCost(
            raw_package=self.raw_package,
            package_defects=self.package_defects,
            wasted_kgd=self.wasted_kgd(kgd_cost),
        )

    @property
    def fixed_total(self) -> float:
        """``raw_package + package_defects`` with the exact float
        association used by :meth:`repro.core.breakdown.RECost.total`."""
        return self.raw_package + self.package_defects

    def total_with(self, kgd_cost: float) -> float:
        """Packaging total (raw + defects + wasted) for one KGD value."""
        return self.fixed_total + self.wasted_kgd(kgd_cost)


class IntegrationTech(ABC):
    """One way of turning chips into a packaged system."""

    #: Short catalog key, e.g. "mcm".
    name: str = ""
    #: Human-facing label, e.g. "MCM".
    label: str = ""

    @staticmethod
    def _check_chip_areas(chip_areas: Sequence[float]) -> None:
        if not chip_areas:
            raise EmptySystemError("a package needs at least one chip")
        for area in chip_areas:
            if area <= 0:
                raise InvalidParameterError(
                    f"chip areas must be > 0 mm^2, got {area}"
                )

    @abstractmethod
    def package_area(self, chip_areas: Sequence[float]) -> float:
        """Package (substrate) footprint in mm^2 for the given chips."""

    @abstractmethod
    def packaging_affine(
        self,
        chip_areas: Sequence[float],
        sized_for: Sequence[float] | None = None,
    ) -> PackagingAffine:
        """Packaging cost coefficients for one system.

        Args:
            chip_areas: Area of each chip placed in the package, mm^2.
            sized_for: When the package is a reused design, the chip
                areas it was *sized* for; carrier and substrate costs
                follow these, bonding yields follow ``chip_areas``.
        """

    def packaging_cost(
        self,
        chip_areas: Sequence[float],
        kgd_cost: float,
        sized_for: Sequence[float] | None = None,
    ) -> PackagingCost:
        """Recurring packaging cost for one system, where ``kgd_cost``
        is the total cost of the known good dies committed to one
        assembly attempt, USD (other arguments as
        :meth:`packaging_affine`)."""
        return self.packaging_affine(chip_areas, sized_for).packaging_cost(
            kgd_cost
        )

    @abstractmethod
    def package_nre(self, chip_areas: Sequence[float]) -> float:
        """One-time package design cost (Kp*Sp + Cp), USD."""

    @property
    def max_chips(self) -> int | None:
        """Upper bound on chips per package, or None when unconstrained."""
        return None

    def supports_chip_count(self, count: int) -> bool:
        limit = self.max_chips
        return limit is None or count <= limit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
