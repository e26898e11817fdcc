"""System: chips assembled by an integration technology (Eq. 3).

``SoC_j  = Package(Chip({m_k1, m_k2, ...}))`` — one die, one package.
``MCM_j  = Package({c_k1, c_k2, ...})``      — chiplets in a package.

A system optionally references a shared :class:`PackageDesign` (package
reuse); otherwise its package is sized for exactly its chips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.package_design import PackageDesign
from repro.canon import fold_sum
from repro.d2d.overhead import NO_OVERHEAD, D2DOverhead
from repro.errors import EmptySystemError, InvalidParameterError
from repro.packaging.base import IntegrationTech
from repro.process.node import ProcessNode


@dataclass(frozen=True, eq=False)
class System:
    """A packaged product.

    Attributes:
        name: Human-readable label.
        chips: Chip instances in the package (repeat an object for
            multiple instances of the same chiplet).
        integration: Integration technology assembling the chips.
        quantity: Production quantity used for NRE amortization.
        package: Optional shared package design (package reuse).  When
            set, recurring packaging is costed against the design's
            sockets and the design's NRE is shared by every system that
            references the same object.
    """

    name: str
    chips: tuple[Chip, ...]
    integration: IntegrationTech
    quantity: float = 1.0
    package: PackageDesign | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.chips:
            raise EmptySystemError(f"system {self.name!r} has no chips")
        if not self.quantity > 0:  # NaN fails too
            raise InvalidParameterError(
                f"system {self.name!r}: quantity must be > 0, got {self.quantity}"
            )
        if not self.integration.supports_chip_count(len(self.chips)):
            raise InvalidParameterError(
                f"system {self.name!r}: {self.integration.label} cannot hold "
                f"{len(self.chips)} chips"
            )
        if self.package is not None:
            if self.package.integration is not self.integration:
                raise InvalidParameterError(
                    f"system {self.name!r}: package design uses "
                    f"{self.package.integration.label}, system uses "
                    f"{self.integration.label}"
                )
            if not self.package.accommodates(self.chip_areas):
                raise InvalidParameterError(
                    f"system {self.name!r}: chips do not fit package design "
                    f"{self.package.name!r}"
                )

    @cached_property
    def chip_areas(self) -> tuple[float, ...]:
        return tuple(chip.area for chip in self.chips)

    @property
    def silicon_area(self) -> float:
        """Total die area in the package, mm^2."""
        return fold_sum(self.chip_areas)

    @property
    def module_area(self) -> float:
        """Total module (non-D2D) area, mm^2."""
        return fold_sum(chip.module_area for chip in self.chips)

    @property
    def is_multichip(self) -> bool:
        return len(self.chips) > 1

    @cached_property
    def _unique_chips(self) -> tuple[tuple[Chip, int], ...]:
        counts: dict[int, int] = {}
        order: dict[int, Chip] = {}
        for chip in self.chips:
            counts[id(chip)] = counts.get(id(chip), 0) + 1
            order.setdefault(id(chip), chip)
        return tuple((order[key], counts[key]) for key in order)

    def unique_chips(self) -> list[tuple[Chip, int]]:
        """Distinct chip objects with their instance counts.

        The grouping is cached: ``chips`` is frozen, so the id-based
        bucketing happens once per system rather than per evaluation.
        """
        return list(self._unique_chips)

    def unique_modules(self) -> list[Module]:
        """Distinct module objects across all chips."""
        seen: dict[int, Module] = {}
        for chip in self.chips:
            for module in chip.modules:
                seen.setdefault(id(module), module)
        return list(seen.values())

    def chiplet_nodes(self) -> list[ProcessNode]:
        """Nodes that need a D2D interface design (one entry per node name)."""
        nodes: dict[str, ProcessNode] = {}
        for chip in self.chips:
            if chip.is_chiplet:
                nodes.setdefault(chip.node.name, chip.node)
        return list(nodes.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"System({self.name!r}, {len(self.chips)} chips, "
            f"{self.integration.label}, {self.silicon_area:.0f} mm^2 silicon)"
        )


def soc(
    name: str,
    modules: Sequence[Module],
    node: ProcessNode,
    integration: IntegrationTech,
    quantity: float = 1.0,
) -> System:
    """Monolithic SoC: all modules on one die, no D2D interface."""
    die = Chip.of(name=f"{name}-die", modules=modules, node=node)
    return System(
        name=name, chips=(die,), integration=integration, quantity=quantity
    )


def multichip(
    name: str,
    chips: Sequence[Chip],
    integration: IntegrationTech,
    quantity: float = 1.0,
    package: PackageDesign | None = None,
) -> System:
    """Multi-chip system from existing chips (chiplet reuse: pass the
    same chip object to several systems)."""
    return System(
        name=name,
        chips=tuple(chips),
        integration=integration,
        quantity=quantity,
        package=package,
    )


def chiplet(
    name: str,
    modules: Sequence[Module],
    node: ProcessNode,
    d2d: D2DOverhead = NO_OVERHEAD,
) -> Chip:
    """Convenience constructor mirroring :func:`soc` for a single chiplet."""
    return Chip.of(name=name, modules=modules, node=node, d2d=d2d)
