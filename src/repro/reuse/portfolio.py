"""System portfolios with shared-design NRE amortization (Eqs. 7-8).

A portfolio is a group of systems built from (possibly shared) modules,
chips and package designs.  Sharing is expressed by *design value*: two
systems that reference the same :class:`~repro.core.chip.Chip` object —
or two value-equal chip objects, e.g. after a config/scenario JSON
round-trip rebuilt every pool entry — share one chip design, so its NRE
is paid once and amortized over every instance produced (the value keys
live in :mod:`repro.reuse.keys`).

Amortization rule: a design's NRE is divided equally over every *system
unit* produced that contains the design (at least once); a unit with
four instances of a chiplet bears the same share as a unit with one.
This matches the paper's Figure 8 arithmetic: reusing one chiplet across
three grades cuts the largest grade's chip NRE by ~3/4 (an equal
three-way split of one design), and sharing the package design across
the three grades cuts its amortized NRE by exactly two thirds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.canon import fold_sum
from repro.core.breakdown import NRECost, TotalCost
from repro.core.nre_cost import chip_design_nre
from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.errors import EmptySystemError, InvalidParameterError
from repro.reuse.keys import (
    chip_design_key,
    module_design_key,
    package_design_key,
)


@dataclass(frozen=True)
class _DesignUnit:
    """One amortizable design: its NRE and production denominator.

    ``total_units`` is the sum of quantities of every system containing
    the design (each system counted once, regardless of how many
    instances of the design it holds); ``quantities`` records the
    contributing per-system quantities in collection order, so batch
    evaluators can re-fold the denominator for a scaled volume with the
    exact accumulation order of a rebuilt portfolio.
    """

    nre: float
    total_units: float
    quantities: tuple[float, ...] = ()


@dataclass(frozen=True)
class _SystemKeys:
    """The design keys one system touches, in amortization order."""

    modules: tuple[Hashable, ...]
    chips: tuple[Hashable, ...]
    d2d: tuple[str, ...]


class Portfolio:
    """A group of systems sharing module/chip/package designs."""

    def __init__(self, systems: Iterable[System]):
        self.systems: tuple[System, ...] = tuple(systems)
        if not self.systems:
            raise EmptySystemError("a portfolio needs at least one system")
        names = [system.name for system in self.systems]
        if len(set(names)) != len(names):
            raise InvalidParameterError(
                "portfolio systems must have unique names"
            )
        for system in self.systems:
            quantity = system.quantity
            if not (quantity > 0 and math.isfinite(quantity)):
                raise InvalidParameterError(
                    f"portfolio system {system.name!r}: quantity must be a "
                    f"positive finite number, got {quantity}"
                )
        self._system_keys: dict[int, _SystemKeys] = {}
        self._module_units = self._collect_module_units()
        self._chip_units = self._collect_chip_units()
        self._package_units = self._collect_package_units()
        self._d2d_units = self._collect_d2d_units()

    # ------------------------------------------------------------------
    # Design-unit discovery
    # ------------------------------------------------------------------

    def _collect_module_units(self) -> dict[tuple, _DesignUnit]:
        """Module design units keyed by (module key, node name).

        The same module design placed on chips at two different nodes is
        two designs (the paper treats per-node variants as diverse
        modules).
        """
        quantities: dict[tuple, list[float]] = {}
        nre: dict[tuple, float] = {}
        for system in self.systems:
            keys: set[tuple] = set()
            for chip, _count in system.unique_chips():
                for module in chip.unique_modules():
                    key = (module_design_key(module), chip.node.name)
                    keys.add(key)
                    nre[key] = (
                        chip.node.km_per_mm2 * module.area_at(chip.node)
                    )
            for key in keys:
                quantities.setdefault(key, []).append(system.quantity)
        return {
            key: _design_unit(nre[key], quantities[key]) for key in quantities
        }

    def _collect_chip_units(self) -> dict[Hashable, _DesignUnit]:
        quantities: dict[Hashable, list[float]] = {}
        nre: dict[Hashable, float] = {}
        for system in self.systems:
            for chip, _count in system.unique_chips():
                key = chip_design_key(chip)
                quantities.setdefault(key, []).append(system.quantity)
                nre[key] = chip_design_nre(chip)
        return {
            key: _design_unit(nre[key], quantities[key]) for key in quantities
        }

    def _collect_package_units(self) -> dict[Hashable, _DesignUnit]:
        """Shared package designs; systems without one own their package."""
        quantities: dict[Hashable, list[float]] = {}
        nre: dict[Hashable, float] = {}
        for system in self.systems:
            if system.package is None:
                continue
            key = package_design_key(system.package)
            quantities.setdefault(key, []).append(system.quantity)
            nre[key] = system.package.nre
        return {
            key: _design_unit(nre[key], quantities[key]) for key in quantities
        }

    def _collect_d2d_units(self) -> dict[str, _DesignUnit]:
        """One D2D interface design per process node *name* (Eq. 8).

        Two distinct node objects sharing a name (a custom node
        shadowing a catalog one, layered registry scoping gone wrong)
        but pricing the D2D design differently would silently keep only
        the last-seen NRE; that collision is an error, not a tiebreak.
        """
        quantities: dict[str, list[float]] = {}
        nre: dict[str, float] = {}
        for system in self.systems:
            names: set[str] = set()
            for chip, _count in system.unique_chips():
                if not chip.is_chiplet:
                    continue
                name = chip.node.name
                names.add(name)
                interface_nre = chip.node.d2d_interface_nre
                if name in nre and nre[name] != interface_nre:
                    raise InvalidParameterError(
                        f"portfolio system {system.name!r}: node name "
                        f"{name!r} maps to conflicting D2D interface NRE "
                        f"({nre[name]:g} vs {interface_nre:g}); rename one "
                        "of the colliding custom nodes"
                    )
                nre[name] = interface_nre
            for name in names:
                quantities.setdefault(name, []).append(system.quantity)
        return {
            key: _design_unit(nre[key], quantities[key]) for key in quantities
        }

    # ------------------------------------------------------------------
    # Portfolio-level aggregates
    # ------------------------------------------------------------------

    @property
    def total_quantity(self) -> float:
        return fold_sum(system.quantity for system in self.systems)

    def total_nre(self) -> NRECost:
        """One-time cost of the whole portfolio, each design paid once."""
        modules = fold_sum(unit.nre for unit in self._module_units.values())
        chips = fold_sum(unit.nre for unit in self._chip_units.values())
        d2d = fold_sum(unit.nre for unit in self._d2d_units.values())
        packages = fold_sum(unit.nre for unit in self._package_units.values())
        for system in self.systems:
            if system.package is None:
                packages += system.integration.package_nre(system.chip_areas)
        return NRECost(modules=modules, chips=chips, packages=packages, d2d=d2d)

    # ------------------------------------------------------------------
    # Per-system amortized cost
    # ------------------------------------------------------------------

    def _require_member(self, system: System) -> None:
        if not any(member is system for member in self.systems):
            raise InvalidParameterError(
                f"system {system.name!r} is not part of this portfolio"
            )

    def system_design_keys(self, system: System) -> _SystemKeys:
        """The module/chip/D2D design keys ``system`` touches.

        Cached per member system; the key tuples fix the amortization
        *summation order*, which the batch engine
        (:class:`repro.engine.fastportfolio.PortfolioEngine`) reuses to
        stay bit-identical with :meth:`amortized_nre`.  Members only:
        the id-keyed cache relies on the portfolio keeping each system
        alive, so a transient outsider could otherwise alias a recycled
        id.
        """
        self._require_member(system)
        cached = self._system_keys.get(id(system))
        if cached is not None:
            return cached
        module_keys: set[tuple] = set()
        chip_keys: set[Hashable] = set()
        d2d_keys: set[str] = set()
        for chip, _count in system.unique_chips():
            for module in chip.unique_modules():
                module_keys.add((module_design_key(module), chip.node.name))
            chip_keys.add(chip_design_key(chip))
            if chip.is_chiplet:
                d2d_keys.add(chip.node.name)
        keys = _SystemKeys(
            modules=tuple(module_keys),
            chips=tuple(chip_keys),
            d2d=tuple(d2d_keys),
        )
        self._system_keys[id(system)] = keys
        return keys

    def amortized_nre(self, system: System) -> NRECost:
        """Per-unit NRE share borne by one unit of ``system``.

        Every design used by the system contributes NRE / total units of
        all systems containing it — once, no matter how many instances
        the system holds.
        """
        self._require_member(system)
        keys = self.system_design_keys(system)

        modules = fold_sum(
            self._module_units[key].nre / self._module_units[key].total_units
            for key in keys.modules
        )
        chips = fold_sum(
            self._chip_units[key].nre / self._chip_units[key].total_units
            for key in keys.chips
        )
        d2d = fold_sum(
            self._d2d_units[key].nre / self._d2d_units[key].total_units
            for key in keys.d2d
        )

        if system.package is not None:
            pkg_unit = self._package_units[package_design_key(system.package)]
            packages = pkg_unit.nre / pkg_unit.total_units
        else:
            packages = (
                system.integration.package_nre(system.chip_areas)
                / system.quantity
            )
        return NRECost(modules=modules, chips=chips, packages=packages, d2d=d2d)

    def amortized_cost(self, system: System) -> TotalCost:
        """Per-unit total cost (RE + amortized NRE shares) of a member."""
        return TotalCost(
            re=compute_re_cost(system),
            amortized_nre=self.amortized_nre(system),
            quantity=system.quantity,
        )

    def average_cost(self) -> float:
        """Quantity-weighted average per-unit total cost of the portfolio."""
        spend = fold_sum(
            self.amortized_cost(system).total * system.quantity
            for system in self.systems
        )
        return spend / self.total_quantity

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Portfolio({len(self.systems)} systems, {self.total_quantity:g} units)"


def _design_unit(nre: float, quantities: list[float]) -> _DesignUnit:
    """Fold a design's contributing quantities into a unit.

    The left-to-right fold from 0.0 reproduces the historical
    ``totals[key] = totals.get(key, 0.0) + system.quantity``
    accumulation bit-for-bit.
    """
    total = fold_sum(quantities)
    return _DesignUnit(
        nre=nre, total_units=total, quantities=tuple(quantities)
    )
