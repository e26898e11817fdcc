"""CostEngine: batched system evaluation with shared caches.

The exploration workloads (partition grids, CLI sweeps, sensitivity
tornados, portfolio reports) all reduce to "price many :class:`~repro.core.system.
System` objects".  The engine gives that loop one home:

* per-system evaluation reuses the memoized die-cost layer
  (``repro.wafer.diecache``) and caches the packaging coefficients
  per (package, areas) (``repro.engine.packaging_affine``), so a
  100-point sweep prices each distinct die and package once;
* :meth:`CostEngine.evaluate_re` / :meth:`CostEngine.evaluate_many`
  price built systems, and :meth:`CostEngine.partition_sweep` /
  :meth:`CostEngine.partition_grid` price equal partitions as columns
  over the area axis on the kernel the design-space search uses
  (``repro.engine.partition_columns``); these are the batch
  front-ends that ``repro.explore``, the scenario runner and the CLI
  route through.  Design-space studies
  run on ``repro.search`` and Monte-Carlo sampling lives in
  ``repro.engine.fastmc``.

Results are bit-compatible with the naive
:func:`repro.core.re_cost.compute_re_cost` path — the engine replicates
its accumulation order exactly — which the parity tests in
``tests/test_engine.py`` enforce across SoC/MCM/InFO/2.5D/3D systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.core.breakdown import RECost
from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.wafer.diecache import cached_die_cost
from repro.engine.packaging_affine import linearize_packaging
from repro.errors import InvalidParameterError
from repro.explore.sweep import Sweep, SweepPoint
from repro.packaging.base import PackagingAffine
from repro.wafer.die import DieSpec

Y = TypeVar("Y")
R = TypeVar("R")
C = TypeVar("C")

#: Packaging-coefficient entries kept per engine before a full reset.
_AFFINE_CACHE_MAXSIZE = 4096

#: Identity-keyed die-cost entries kept per engine before a full reset.
_DIE_HOT_CACHE_MAXSIZE = 65536


@dataclass(frozen=True)
class GridPoint(Generic[R, C, Y]):
    """One cell of a two-parameter grid evaluation."""

    row: R
    col: C
    value: Y


@dataclass(frozen=True)
class GridResult(Generic[R, C, Y]):
    """Row-major results of :meth:`CostEngine.partition_grid`."""

    name: str
    rows: tuple
    cols: tuple
    points: tuple[GridPoint, ...]

    @cached_property
    def _by_cell(self) -> dict:
        return {(point.row, point.col): point.value for point in self.points}

    def value(self, row: R, col: C) -> Y:
        """The evaluation at one (row, col) cell (errors when absent)."""
        try:
            return self._by_cell[(row, col)]
        except (KeyError, TypeError):
            raise InvalidParameterError(
                f"grid {self.name!r} has no cell ({row!r}, {col!r})"
            ) from None


class CostEngine:
    """Batched cost evaluation with shared memoization.

    Every entry point evaluates serially on this engine's caches; the
    model prices one system in about a tenth of a millisecond, so
    thread or process fan-out only adds overhead (PERFORMANCE.md).
    """

    def __init__(self):
        # Identity-keyed hot caches.  Keys use id(...) to avoid hashing
        # multi-field dataclasses on every lookup; each value keeps a
        # strong reference to the keyed object, so a key can never be
        # recycled for a different live object (entries are verified
        # with an `is` check on hit anyway).
        self._die_cache: dict[tuple[int, float], tuple] = {}
        self._affine_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # single-system evaluation
    # ------------------------------------------------------------------

    def _die_cost_for(self, node, area: float) -> "object":
        """Die cost via the identity-keyed hot cache, backed by the
        shared value-keyed cache of ``repro.wafer.diecache``."""
        key = (id(node), area)
        entry = self._die_cache.get(key)
        if entry is not None and entry[0] is node:
            return entry[1]
        cost = cached_die_cost(DieSpec(area=area, node=node))
        if len(self._die_cache) >= _DIE_HOT_CACHE_MAXSIZE:
            self._die_cache.clear()
        self._die_cache[key] = (node, cost)
        return cost

    def _packaging_affine(self, system: System) -> PackagingAffine:
        """Cached packaging coefficients for this system's
        (package-or-integration, chip areas) combination."""
        packager = system.package if system.package is not None else system.integration
        areas = system.chip_areas
        key = (id(packager), areas)
        entry = self._affine_cache.get(key)
        if entry is not None and entry[0] is packager:
            return entry[1]
        affine = linearize_packaging(packager, areas)
        if len(self._affine_cache) >= _AFFINE_CACHE_MAXSIZE:
            self._affine_cache.clear()
        self._affine_cache[key] = (packager, affine)
        return affine

    def evaluate_re(
        self,
        system: System,
        die_cost_fn: Callable | None = None,
    ) -> RECost:
        """Per-unit RE cost; numerically identical to
        :func:`repro.core.re_cost.compute_re_cost`.

        Delegates to the single shared accumulation in
        ``repro.core.re_cost``, supplying the engine's identity-keyed
        die cache and cached packaging coefficients.

        Args:
            system: The system to price.
            die_cost_fn: Optional ``(node, area) -> DieCost`` override
                replacing the engine's die pricing — how registry-named
                yield models / wafer geometries
                (:meth:`repro.config.ConfigRegistries.die_cost_fn`)
                reach every evaluation path.  The cached packaging
                coefficients still apply (they are a function of the
                packager and chip areas only, not of die prices).
        """
        return compute_re_cost(
            system,
            die_cost_fn=die_cost_fn if die_cost_fn is not None else self._die_cost_for,
            packaging_cost_fn=self._packaging_affine(system).packaging_cost,
        )

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------

    def evaluate_many(
        self,
        systems: Sequence[System],
        die_cost_fn: Callable | None = None,
    ) -> list[RECost]:
        """:meth:`evaluate_re` of every system, in order (optionally
        under a die-cost override, see :meth:`evaluate_re`)."""
        return [
            self.evaluate_re(system, die_cost_fn=die_cost_fn)
            for system in systems
        ]

    # ------------------------------------------------------------------
    # equal-partition studies
    # ------------------------------------------------------------------

    def partition_sweep(
        self,
        name: str,
        module_area: float,
        node,
        chiplet_counts: Sequence[int],
        integration,
        d2d_fraction: "float | object" = 0.10,
        soc_for_one: bool = True,
        die_cost_fn=None,
    ) -> Sweep:
        """RE cost across partition granularities: the one-area
        :meth:`partition_grid`, so count 1 prices the monolithic SoC
        reference unless ``soc_for_one`` is false."""
        if not chiplet_counts:
            raise InvalidParameterError("sweep needs at least one value")
        grid = self.partition_grid(
            name, [module_area], chiplet_counts, node, integration,
            d2d_fraction, soc_for_one, die_cost_fn,
        )
        return Sweep(
            name=name,
            points=tuple(
                SweepPoint(x=point.col, value=point.value)
                for point in grid.points
            ),
        )

    def partition_grid(
        self,
        name: str,
        module_areas: Sequence[float],
        chiplet_counts: Sequence[int],
        node,
        integration,
        d2d_fraction: "float | object" = 0.10,
        soc_for_one: bool = False,
        die_cost_fn=None,
    ) -> GridResult:
        """Areas x counts grid of equal-partition RE costs, priced as
        columns over the area axis without building systems
        (``repro.engine.partition_columns``): one packaging
        linearization per count.  Each cell equals
        ``compute_re_cost(partition_monolith(...))`` bit for bit, chip
        details included, or ``compute_re_cost(soc_reference(...))`` at
        count 1 when ``soc_for_one``.  ``die_cost_fn`` optionally
        replaces the default die pricing (custom yield models / wafer
        geometries)."""
        from repro.d2d.overhead import FractionOverhead
        from repro.engine import partition_columns as kernel
        from repro.explore.partition import partition_label, soc_label
        from repro.packaging.soc import soc_package

        if not module_areas or not chiplet_counts:
            raise InvalidParameterError("grid needs at least one row and column")
        if not isinstance(d2d_fraction, FractionOverhead):
            d2d_fraction = FractionOverhead(d2d_fraction)
        for area in module_areas:
            if area <= 0:
                raise InvalidParameterError(
                    f"module_area must be > 0, got {area}"
                )
        areas = [float(area) for area in module_areas]
        columns: dict[int, list[RECost]] = {}
        for count in chiplet_counts:
            if count < 1:
                raise InvalidParameterError(
                    f"n_chiplets must be >= 1, got {count}"
                )
            if soc_for_one and count == 1:
                packager = soc_package()
                chip_areas = kernel.soc_areas(areas)
                names = [
                    (f"{soc_label(area, node)}-die",) for area in module_areas
                ]
            else:
                if not integration.supports_chip_count(count):
                    raise InvalidParameterError(
                        f"{integration.label} cannot hold {count} chips"
                    )
                packager = integration
                _share, chip_areas = kernel.split_areas(
                    areas, count, d2d_fraction.fraction
                )
                names = [
                    tuple(f"{label}-chiplet{index}" for index in range(count))
                    for label in (
                        partition_label(area, node, count, integration)
                        for area in module_areas
                    )
                ]
            columns[count] = kernel.re_costs(
                count,
                kernel.die_columns(node, chip_areas, die_cost_fn),
                linearize_packaging(packager, chip_areas, count),
                names,
            )
        points = tuple(
            GridPoint(row=area, col=count, value=columns[count][index])
            for index, area in enumerate(module_areas)
            for count in chiplet_counts
        )
        return GridResult(
            name=name,
            rows=tuple(module_areas),
            cols=tuple(chiplet_counts),
            points=points,
        )

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop the engine-local hot caches and the shared die cache."""
        from repro.wafer.diecache import clear_die_cost_cache

        self._die_cache.clear()
        self._affine_cache.clear()
        clear_die_cost_cache()

    def cache_info(self) -> dict[str, Any]:
        """Occupancy/hit counters for the engine's caches."""
        from repro.wafer.diecache import die_cost_cache_info

        info = die_cost_cache_info()
        return {
            "die_cost_hits": info.hits,
            "die_cost_misses": info.misses,
            "die_cost_currsize": info.currsize,
            "die_cost_maxsize": info.maxsize,
            "die_hot_entries": len(self._die_cache),
            "packaging_affine_entries": len(self._affine_cache),
        }


_default_engine: CostEngine | None = None


def default_engine() -> CostEngine:
    """The process-wide engine used when callers do not supply one."""
    global _default_engine
    if _default_engine is None:
        _default_engine = CostEngine()
    return _default_engine
