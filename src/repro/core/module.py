"""Module: an indivisible group of functional units (Eq. 3).

The paper's module is *not* the general soft-IP notion: it is a block
that is designed once (Km * Sm of NRE) and then instantiated on chips.
Modules compare by identity — two systems share a module's NRE only if
they reference the *same* :class:`Module` object, which is how chiplet
and module reuse are expressed throughout the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError
from repro.process.node import ProcessNode
from repro.process.scaling import scale_area

#: Reserved name for the implicit D2D interface module.
D2D_MODULE_NAME = "__d2d__"


@functools.lru_cache(maxsize=4096)
def _scaled_area(
    area: float,
    from_node: ProcessNode,
    to_node: ProcessNode,
    scalable_fraction: float,
) -> float:
    """Memoized :func:`repro.process.scaling.scale_area` (pure over
    value-hashable arguments, shared across value-equal modules)."""
    return scale_area(area, from_node, to_node, scalable_fraction)


@dataclass(frozen=True, eq=False)
class Module:
    """A functional block with an area defined at a reference node.

    Attributes:
        name: Human-readable label.
        area: Area in mm^2 at ``node``.
        node: Reference node at which ``area`` is specified.
        scalable_fraction: Share of the area that shrinks with logic
            density when the module is retargeted to another node
            (1.0 = pure logic, 0.0 = analog/IO that does not scale).
    """

    name: str
    area: float
    node: ProcessNode
    scalable_fraction: float = field(default=1.0)

    def __post_init__(self) -> None:
        if not self.area > 0:  # NaN fails too
            raise InvalidParameterError(
                f"module {self.name!r}: area must be > 0, got {self.area}"
            )
        if not 0.0 <= self.scalable_fraction <= 1.0:
            raise InvalidParameterError(
                f"module {self.name!r}: scalable_fraction must be in [0, 1]"
            )
        if self.name == D2D_MODULE_NAME:
            raise InvalidParameterError(
                f"{D2D_MODULE_NAME!r} is reserved for the implicit D2D module"
            )

    def area_at(self, node: ProcessNode) -> float:
        """Area in mm^2 when the module is implemented on ``node``.

        Memoized (value-keyed, so a perturbed node is a distinct key and
        can never hit a stale entry); retargeting to the module's own
        node short-circuits since the scale factor is exactly 1.
        """
        if node is self.node:
            return self.area
        return _scaled_area(self.area, self.node, node, self.scalable_fraction)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Module({self.name!r}, {self.area:g} mm^2 @ {self.node.name}, "
            f"scalable={self.scalable_fraction:g})"
        )
