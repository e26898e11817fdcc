"""CostEngine: batched system evaluation with shared caches.

The exploration workloads (partition grids, Pareto studies, CLI sweeps,
portfolio reports) all reduce to "price many :class:`~repro.core.system.
System` objects".  The engine gives that loop one home:

* per-system evaluation reuses the memoized die-cost layer
  (``repro.wafer.diecache``) and caches the packaging coefficients
  per (package, areas) (``repro.engine.packaging_affine``), so a
  100-point sweep prices each distinct die and package once;
* :meth:`CostEngine.sweep` / :meth:`CostEngine.grid` are the batch
  front-ends that ``repro.explore`` and the CLI route through.

Results are bit-compatible with the naive
:func:`repro.core.re_cost.compute_re_cost` path — the engine replicates
its accumulation order exactly — which the parity tests in
``tests/test_engine.py`` enforce across SoC/MCM/InFO/2.5D/3D systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.core.breakdown import RECost, TotalCost
from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.core.total import compute_total_cost
from repro.wafer.diecache import cached_die_cost
from repro.engine.packaging_affine import linearize_packaging
from repro.errors import InvalidParameterError
from repro.explore.sweep import Sweep, SweepPoint
from repro.packaging.base import PackagingAffine
from repro.wafer.die import DieSpec

X = TypeVar("X")
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
    """Row-major results of :meth:`CostEngine.grid`."""

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

    def row_sweep(self, row: R) -> Sweep:
        """One grid row as a :class:`~repro.explore.sweep.Sweep`."""
        points = tuple(
            SweepPoint(x=point.col, value=point.value)
            for point in self.points
            if point.row == row
        )
        if not points:
            raise InvalidParameterError(f"grid {self.name!r} has no row {row!r}")
        return Sweep(name=f"{self.name}[{row!r}]", points=points)


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

    def evaluate_total(
        self,
        system: System,
        quantity: float | None = None,
        die_cost_fn: Callable | None = None,
    ) -> TotalCost:
        """Per-unit total (RE + amortized NRE), delegating to
        :func:`repro.core.total.compute_total_cost` with the engine's
        cached RE evaluation (optionally under a die-cost override, see
        :meth:`evaluate_re`)."""
        return compute_total_cost(
            system,
            quantity=quantity,
            re_cost=self.evaluate_re(system, die_cost_fn=die_cost_fn),
        )

    def monte_carlo(
        self,
        system: System,
        draws: int = 500,
        sigma: float = 0.15,
        seed: int = 0,
        die_cost_fn: Callable | None = None,
        precision: str = "exact",
    ) -> list[float]:
        """Closed-form Monte-Carlo RE samples under defect uncertainty.

        The batch front-end to :func:`repro.engine.fastmc.
        sample_re_costs`: one compiled plan, a vectorized
        MT19937-transplanted prior stream (``repro.engine.rng``) and
        batch evaluation — draw-for-draw bit-identical to the
        object-rebuilding oracle
        (:func:`repro.explore.montecarlo.monte_carlo_cost_naive`).
        ``die_cost_fn`` carries registry-named yield-model /
        wafer-geometry overrides into every draw; ``precision`` selects
        the evaluation tier (``"exact"`` | ``"fast"``, PERFORMANCE.md
        "Precision tiers").  Distribution statistics and method
        selection live one layer up in
        :func:`repro.explore.montecarlo.monte_carlo_cost`.
        """
        from repro.engine.fastmc import sample_re_costs

        return sample_re_costs(
            system,
            draws=draws,
            sigma=sigma,
            seed=seed,
            die_cost_fn=die_cost_fn,
            precision=precision,
        )

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------

    def evaluate_many(
        self,
        systems: Sequence[System],
        evaluator: Callable[[System], Any] | None = None,
        die_cost_fn: Callable | None = None,
    ) -> list:
        """Evaluate every system in order; ``evaluator`` defaults to
        :meth:`evaluate_re`.

        Args:
            systems: Systems to price.
            evaluator: Optional metric applied to each system.
            die_cost_fn: Optional die-pricing override applied to the
                default RE evaluator (mutually exclusive with
                ``evaluator``).
        """
        if die_cost_fn is not None:
            if evaluator is not None:
                raise InvalidParameterError(
                    "pass either evaluator or die_cost_fn, not both"
                )
            return [
                self.evaluate_re(system, die_cost_fn=die_cost_fn)
                for system in systems
            ]
        if evaluator is None:
            return [self.evaluate_re(system) for system in systems]
        return [evaluator(system) for system in systems]

    def sweep(
        self,
        name: str,
        values: Sequence[X],
        builder: Callable[[X], System],
        evaluator: Callable[[System], Y] | None = None,
        die_cost_fn: Callable | None = None,
    ) -> Sweep:
        """Batched form of :func:`repro.explore.sweep.run_sweep`."""
        if not values:
            raise InvalidParameterError("sweep needs at least one value")
        systems = [builder(value) for value in values]
        results = self.evaluate_many(
            systems, evaluator=evaluator, die_cost_fn=die_cost_fn
        )
        points = tuple(
            SweepPoint(x=value, value=result)
            for value, result in zip(values, results)
        )
        return Sweep(name=name, points=points)

    def grid(
        self,
        name: str,
        rows: Sequence[R],
        cols: Sequence[C],
        builder: Callable[[R, C], System],
        evaluator: Callable[[System], Y] | None = None,
        die_cost_fn: Callable | None = None,
    ) -> GridResult:
        """Evaluate the full ``rows x cols`` cartesian product."""
        if not rows or not cols:
            raise InvalidParameterError("grid needs at least one row and column")
        cells = [(row, col) for row in rows for col in cols]
        systems = [builder(row, col) for row, col in cells]
        results = self.evaluate_many(
            systems, evaluator=evaluator, die_cost_fn=die_cost_fn
        )
        points = tuple(
            GridPoint(row=row, col=col, value=result)
            for (row, col), result in zip(cells, results)
        )
        return GridResult(name=name, rows=tuple(rows), cols=tuple(cols), points=points)

    # ------------------------------------------------------------------
    # closed-form partition studies
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
        """RE cost across partition granularities without building
        systems (``repro.engine.fastsweep``); count 1 prices the
        monolithic SoC reference unless ``soc_for_one`` is false.
        ``die_cost_fn`` optionally replaces the engine's die pricing (custom yield models / wafer
        geometries)."""
        from repro.d2d.overhead import FractionOverhead
        from repro.engine.fastsweep import partition_re_cost, soc_re_cost

        if not chiplet_counts:
            raise InvalidParameterError("sweep needs at least one value")
        if not isinstance(d2d_fraction, FractionOverhead):
            d2d_fraction = FractionOverhead(d2d_fraction)
        price_die = die_cost_fn if die_cost_fn is not None else self._die_cost_for
        points = tuple(
            SweepPoint(
                x=count,
                value=(
                    soc_re_cost(module_area, node, die_cost_fn=price_die)
                    if soc_for_one and count == 1
                    else partition_re_cost(
                        module_area,
                        node,
                        count,
                        integration,
                        d2d_fraction,
                        die_cost_fn=price_die,
                    )
                ),
            )
            for count in chiplet_counts
        )
        return Sweep(name=name, points=points)

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
        """Closed-form areas x counts partition grid of RE costs."""
        from repro.d2d.overhead import FractionOverhead
        from repro.engine.fastsweep import partition_re_cost, soc_re_cost

        if not module_areas or not chiplet_counts:
            raise InvalidParameterError("grid needs at least one row and column")
        if not isinstance(d2d_fraction, FractionOverhead):
            d2d_fraction = FractionOverhead(d2d_fraction)
        price_die = die_cost_fn if die_cost_fn is not None else self._die_cost_for
        points = tuple(
            GridPoint(
                row=area,
                col=count,
                value=(
                    soc_re_cost(area, node, die_cost_fn=price_die)
                    if soc_for_one and count == 1
                    else partition_re_cost(
                        area,
                        node,
                        count,
                        integration,
                        d2d_fraction,
                        die_cost_fn=price_die,
                    )
                ),
            )
            for area in module_areas
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
