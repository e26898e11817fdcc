"""Chip: modules plus (for chiplets) a D2D interface (Eq. 3).

A chip is a set of module instances implemented on one process node.
Chiplets additionally carry the D2D interface, modelled as an area
overhead policy (``repro.d2d.overhead``); a monolithic SoC die carries
no D2D.  Chips compare by identity: reusing the same :class:`Chip`
object across systems is what shares its NRE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.canon import fold_sum
from repro.d2d.overhead import NO_OVERHEAD, D2DOverhead
from repro.errors import EmptySystemError
from repro.core.module import Module
from repro.process.node import ProcessNode


@dataclass(frozen=True, eq=False)
class Chip:
    """A die: module instances on a node, with an optional D2D interface.

    Attributes:
        name: Human-readable label.
        modules: Module instances placed on this chip (a module object
            may appear multiple times for multiple instances).
        node: Fabrication node of this chip.
        d2d: D2D area-overhead policy; ``NO_OVERHEAD`` for SoC dies.
    """

    name: str
    modules: tuple[Module, ...]
    node: ProcessNode
    d2d: D2DOverhead = field(default=NO_OVERHEAD)

    def __post_init__(self) -> None:
        if not self.modules:
            raise EmptySystemError(f"chip {self.name!r} has no modules")

    @staticmethod
    def of(
        name: str,
        modules: Sequence[Module],
        node: ProcessNode,
        d2d: D2DOverhead = NO_OVERHEAD,
    ) -> "Chip":
        return Chip(name=name, modules=tuple(modules), node=node, d2d=d2d)

    @cached_property
    def module_area(self) -> float:
        """Total module area in mm^2, retargeted to this chip's node.

        Cached: modules and node are frozen, so the retargeting sum is
        computed once per chip instead of on every cost evaluation
        (``cached_property`` writes through ``__dict__``, which frozen
        dataclasses allow).
        """
        return fold_sum(module.area_at(self.node) for module in self.modules)

    @property
    def d2d_area(self) -> float:
        """Area of the D2D interface on this chip, mm^2."""
        return self.d2d.d2d_area(self.module_area)

    @cached_property
    def area(self) -> float:
        """Finished die area in mm^2 (modules + D2D)."""
        return self.module_area + self.d2d_area

    @property
    def is_chiplet(self) -> bool:
        """True when the chip carries a D2D interface."""
        return self.d2d_area > 0.0

    def unique_modules(self) -> list[Module]:
        """Distinct module objects on this chip (identity-based)."""
        seen: dict[int, Module] = {}
        for module in self.modules:
            seen.setdefault(id(module), module)
        return list(seen.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "chiplet" if self.is_chiplet else "die"
        return (
            f"Chip({self.name!r}, {kind}, {self.area:.1f} mm^2 "
            f"@ {self.node.name}, {len(self.modules)} module instances)"
        )
