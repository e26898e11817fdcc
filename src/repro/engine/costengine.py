"""CostEngine: equal-partition studies priced as columns.

The exploration workloads (partition sweeps and grids, the CLI
``sweep``, the paper's Figures 4 and 6) price many equal partitions of
one module.  :meth:`CostEngine.partition_sweep` /
:meth:`CostEngine.partition_grid` price them as columns over the area
axis on the kernel the design-space search uses
(``repro.engine.partition_columns``), with one packaging linearization
per chiplet count.  A built :class:`~repro.core.system.System` is
priced by :func:`repro.core.re_cost.compute_re_cost`; both paths draw
die costs from the one value-keyed memo, ``repro.wafer.diecache``.
Design-space studies run on ``repro.search`` and Monte-Carlo sampling
lives in ``repro.engine.fastmc``.

Every grid cell is bit-identical to ``compute_re_cost`` of the matching
built system, which the parity tests in ``tests/test_engine.py``
enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Generic, Sequence, TypeVar

from repro.core.breakdown import RECost
from repro.engine.packaging_affine import linearize_packaging
from repro.errors import InvalidParameterError
from repro.explore.sweep import Sweep, SweepPoint

Y = TypeVar("Y")
R = TypeVar("R")
C = TypeVar("C")


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
    """Equal-partition studies as columns, plus the die-cost memo's
    counters.

    The engine holds no state: die costs are memoized by value in
    ``repro.wafer.diecache``.  Every entry point evaluates serially;
    the model prices one system in about a tenth of a millisecond, so
    thread or process fan-out only adds overhead (PERFORMANCE.md).
    """

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
        """Drop the shared die-cost memo."""
        from repro.wafer.diecache import clear_die_cost_cache

        clear_die_cost_cache()

    def cache_info(self) -> dict[str, Any]:
        """Hit and occupancy counters of the shared die-cost memo."""
        from repro.wafer.diecache import die_cost_cache_info

        info = die_cost_cache_info()
        return {
            "die_cost_hits": info.hits,
            "die_cost_misses": info.misses,
            "die_cost_currsize": info.currsize,
            "die_cost_maxsize": info.maxsize,
        }
