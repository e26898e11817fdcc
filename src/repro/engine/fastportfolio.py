"""Batched, vectorized reuse-portfolio evaluation.

The SCMS / OCME / FSMC studies (paper Figs. 8-10) price dozens of
systems whose per-unit cost is

    total(s) = RE(s) + sum over designs d in s of NRE(d) / units(d)

where ``units(d)`` folds the quantities of every system containing the
design.  The :class:`~repro.reuse.portfolio.Portfolio` oracle walks the
object graph for every call; a volume sweep additionally rebuilds the
whole study per point even though *only the denominators change*.  The
reuse argument the paper makes, though, is about amortizing NRE across
*many* systems — portfolios with thousands of members, swept across
volume scenarios — and at that scale even a per-scale dict pass over
the design units is the bottleneck.

This module evaluates portfolios in three increasingly batched forms:

* :meth:`PortfolioEngine.decompose` reduces a portfolio once to
  memoized per-system RE costs (priced by
  :func:`~repro.core.re_cost.compute_re_cost`) plus shared
  design-unit NRE vectors — each design's NRE with the ordered
  per-system quantities contributing to its amortization denominator;
* :meth:`PortfolioDecomposition.evaluate` prices every member at one
  volume scale as scalar float arithmetic over those vectors (the
  oracle-ordered reference path, kept unvectorized on purpose);
* :meth:`PortfolioDecomposition.solve` evaluates *many* volume scales
  at once over dense numpy design x system matrices: per category
  (modules / chips / D2D / packages) a ``(designs, contributors)``
  quantity matrix folds the scaled amortization denominators, an index
  matrix gathers each system's shares in its oracle key order, and the
  totals / quantity-weighted averages come out as ``(scales, systems)``
  arrays without constructing a single cost object
  (:class:`PortfolioVolumeSolve`).

Every path is bit-identical to the oracle
(``tests/test_fastportfolio.py`` / ``test_fastportfolio_vectorized.py``
hold them ``==`` across all three paper studies and on synthetic
thousand-system portfolios): the vector ops are restricted to
elementwise multiply/divide/add plus strictly sequential
``add.accumulate`` folds, replicating the accumulation order a rebuilt
portfolio would use — zero-padded matrix slots are exact no-ops under
IEEE-754 ``x + 0.0``.  Without numpy, :meth:`solve` falls back to the
scalar path and stays correct, just not thousand-system fast.

RE pricing accepts ``compute_re_cost``'s ``die_cost_fn`` override,
which is how scenario ``reuse`` studies price portfolios under
registry-named yield models / wafer geometries (``repro.registry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.canon import fold_sum
from repro.core.breakdown import NRECost, RECost, TotalCost
from repro.core.re_cost import compute_re_cost
from repro.errors import InvalidParameterError
from repro.reuse.keys import package_design_key
from repro.reuse.portfolio import Portfolio, _DesignUnit

try:  # numpy accelerates multi-scale solves; the model never requires it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

#: Decomposition entries kept per portfolio engine before a full reset.
_DECOMPOSITION_CACHE_MAXSIZE = 1024


def _scaled_units(unit: _DesignUnit, scale: float) -> float:
    """The design's amortization denominator at a volume scale.

    Folds ``quantity * scale`` left-to-right from 0.0 — the exact
    accumulation a portfolio rebuilt with scaled quantities performs —
    so sweep points stay bit-identical to the rebuilt oracle.
    """
    if scale == 1.0:
        return unit.total_units
    total = 0.0
    for quantity in unit.quantities:
        total += quantity * scale
    return total


@dataclass(frozen=True)
class PortfolioCosts:
    """All member costs of one portfolio at one volume scale.

    Attributes:
        portfolio: The evaluated portfolio.
        volume_scale: Multiplier applied to every system quantity.
        costs: Per-system :class:`TotalCost`, aligned with
            ``portfolio.systems``.
        average: Quantity-weighted average per-unit total cost.
    """

    portfolio: Portfolio
    volume_scale: float
    costs: tuple[TotalCost, ...]
    average: float

    def totals(self) -> tuple[float, ...]:
        """Per-system total USD/unit, aligned with ``portfolio.systems``."""
        return tuple(cost.total for cost in self.costs)


@dataclass(frozen=True)
class PortfolioVolumeSolve:
    """A whole volume sweep as dense arrays, one row per scale.

    Produced by :meth:`PortfolioDecomposition.solve`.  ``totals``,
    ``quantities`` and the four ``nre_*`` component tables have shape
    ``(len(scales), len(portfolio.systems))``; ``averages`` has shape
    ``(len(scales),)``.  With numpy installed these are ndarrays
    (zero object construction — the thousand-system fast path);
    without it they are nested tuples with the same indexing.  Every
    element is bit-identical to the scalar
    :meth:`PortfolioDecomposition.evaluate` at that scale.
    """

    decomposition: "PortfolioDecomposition"
    scales: tuple[float, ...]
    totals: Any
    averages: Any
    quantities: Any
    nre_modules: Any
    nre_chips: Any
    nre_packages: Any
    nre_d2d: Any

    @property
    def portfolio(self) -> Portfolio:
        return self.decomposition.portfolio

    def point_totals(self, index: int) -> tuple[float, ...]:
        """Per-system total USD/unit at scale ``scales[index]``."""
        return tuple(float(value) for value in self.totals[index])

    def point_average(self, index: int) -> float:
        """Quantity-weighted average total at scale ``scales[index]``."""
        return float(self.averages[index])


class _CategoryMatrices:
    """One design category (modules / chips / D2D / packages) as arrays.

    ``nre`` is the per-design NRE vector; ``quantities`` the dense
    ``(designs, max contributors)`` matrix of per-system quantities in
    the oracle's collection order, zero-padded; ``indices`` the dense
    ``(systems, max keys)`` gather matrix of design indices in each
    system's oracle key order, padded with ``len(designs)`` — an extra
    all-zero share column, so padded gathers add exactly ``0.0``.
    """

    def __init__(
        self,
        units: "Mapping[Any, _DesignUnit]",
        keys_per_system: Sequence[Sequence[Any]],
    ):
        index = {key: position for position, key in enumerate(units)}
        designs = list(units.values())
        self.nre = _np.array([unit.nre for unit in designs], dtype=float)
        max_contribs = max(
            (len(unit.quantities) for unit in designs), default=0
        )
        self.quantities = _np.zeros((len(designs), max_contribs))
        for row, unit in enumerate(designs):
            self.quantities[row, : len(unit.quantities)] = unit.quantities
        max_keys = max((len(keys) for keys in keys_per_system), default=0)
        self.indices = _np.full(
            (len(keys_per_system), max_keys), len(designs), dtype=_np.intp
        )
        for row, keys in enumerate(keys_per_system):
            for column, key in enumerate(keys):
                self.indices[row, column] = index[key]

    def share_sums(self, scales_column) -> Any:
        """Per-system amortized-share sums, one row per scale.

        Exactly replicates the scalar fold: denominators accumulate
        ``quantity * scale`` left-to-right (each matrix column is one
        elementwise multiply-then-add, so padded zeros are no-ops),
        shares divide elementwise, and each system's shares add in its
        oracle key-tuple order via one gathered add per key column.
        """
        n_scales = scales_column.shape[0]
        denominators = _np.zeros((n_scales, len(self.nre)))
        for column in range(self.quantities.shape[1]):
            denominators = (
                denominators + self.quantities[:, column][None, :] * scales_column
            )
        shares = _np.empty((n_scales, len(self.nre) + 1))
        shares[:, :-1] = self.nre[None, :] / denominators
        shares[:, -1] = 0.0
        sums = _np.zeros((n_scales, self.indices.shape[0]))
        for column in range(self.indices.shape[1]):
            sums = sums + shares[:, self.indices[:, column]]
        return sums


class _PortfolioMatrices:
    """A decomposition's dense design x system matrices (numpy only)."""

    def __init__(self, decomposition: "PortfolioDecomposition"):
        portfolio = decomposition.portfolio
        keys = decomposition.keys
        self.modules = _CategoryMatrices(
            portfolio._module_units, [k.modules for k in keys]
        )
        self.chips = _CategoryMatrices(
            portfolio._chip_units, [k.chips for k in keys]
        )
        self.d2d = _CategoryMatrices(
            portfolio._d2d_units, [k.d2d for k in keys]
        )
        self.packages = _CategoryMatrices(
            portfolio._package_units,
            [
                () if key is None else (key,)
                for key in decomposition.package_keys
            ],
        )
        self.own_package_nre = _np.array(
            [
                0.0 if nre is None else nre
                for nre in decomposition.own_package_nre
            ]
        )
        self.owns_package = _np.array(
            [nre is not None for nre in decomposition.own_package_nre]
        )
        self.system_quantities = _np.array(
            [system.quantity for system in portfolio.systems]
        )
        self.re_totals = _np.array([re.total for re in decomposition.re])

    def solve(self, scales: Sequence[float]) -> dict[str, Any]:
        """All per-system costs and averages for every scale at once."""
        scales_column = _np.asarray(scales, dtype=float)[:, None]
        modules = self.modules.share_sums(scales_column)
        chips = self.chips.share_sums(scales_column)
        d2d = self.d2d.share_sums(scales_column)
        shared_packages = self.packages.share_sums(scales_column)
        quantities = self.system_quantities[None, :] * scales_column
        packages = _np.where(
            self.owns_package[None, :],
            self.own_package_nre[None, :] / quantities,
            shared_packages,
        )
        # NRECost.total / TotalCost.total accumulation order, elementwise.
        nre_totals = modules + chips + packages + d2d
        totals = self.re_totals[None, :] + nre_totals
        # Portfolio.average_cost folds spend and quantity left-to-right;
        # add.accumulate is the strictly sequential vector equivalent.
        spend = _np.add.accumulate(totals * quantities, axis=1)[:, -1]
        produced = _np.add.accumulate(quantities, axis=1)[:, -1]
        return {
            "totals": totals,
            "averages": spend / produced,
            "quantities": quantities,
            "nre_modules": modules,
            "nre_chips": chips,
            "nre_packages": packages,
            "nre_d2d": d2d,
        }


class PortfolioDecomposition:
    """One portfolio reduced to NRE vectors plus memoized RE costs."""

    def __init__(
        self,
        portfolio: Portfolio,
        die_cost_fn: "Callable | None" = None,
    ):
        self.portfolio = portfolio
        systems = portfolio.systems
        #: Per-system RE cost, optionally priced under a custom
        #: die-cost override (named yield model / wafer geometry
        #: resolved from ``repro.registry``).
        self.re: tuple[RECost, ...] = tuple(
            compute_re_cost(system, die_cost_fn=die_cost_fn)
            for system in systems
        )
        #: Per-system design-key tuples, in the oracle's summation order.
        self.keys = tuple(
            portfolio.system_design_keys(system) for system in systems
        )
        #: Package NRE of systems that own their package (else None).
        self.own_package_nre: tuple[float | None, ...] = tuple(
            None
            if system.package is not None
            else system.integration.package_nre(system.chip_areas)
            for system in systems
        )
        #: Shared-package design-unit key per system (else None).
        self.package_keys = tuple(
            package_design_key(system.package)
            if system.package is not None
            else None
            for system in systems
        )

    # ------------------------------------------------------------------

    def _share_maps(self, volume_scale: float) -> tuple[dict, ...]:
        """Per-design amortized shares (NRE / denominator) at a scale.

        Computed once per ``evaluate`` call, so a design shared by many
        systems — the whole point of a reuse portfolio — divides once,
        not once per member.
        """
        return tuple(
            {
                key: unit.nre / _scaled_units(unit, volume_scale)
                for key, unit in units.items()
            }
            for units in (
                self.portfolio._module_units,
                self.portfolio._chip_units,
                self.portfolio._d2d_units,
                self.portfolio._package_units,
            )
        )

    def amortized_nre(
        self,
        index: int,
        volume_scale: float = 1.0,
        _shares: "tuple[dict, ...] | None" = None,
    ) -> NRECost:
        """Per-unit NRE share of system ``index`` at a volume scale."""
        module_shares, chip_shares, d2d_shares, package_shares = (
            _shares if _shares is not None else self._share_maps(volume_scale)
        )
        keys = self.keys[index]
        # fold_sum, not builtin sum: pinned to the vector path's gathered
        # adds (and the oracle's folds) across Python versions.
        modules = fold_sum(module_shares[key] for key in keys.modules)
        chips = fold_sum(chip_shares[key] for key in keys.chips)
        d2d = fold_sum(d2d_shares[key] for key in keys.d2d)

        package_key = self.package_keys[index]
        if package_key is not None:
            packages = package_shares[package_key]
        else:
            quantity = self.portfolio.systems[index].quantity
            if volume_scale != 1.0:
                quantity = quantity * volume_scale
            packages = self.own_package_nre[index] / quantity
        return NRECost(modules=modules, chips=chips, packages=packages, d2d=d2d)

    def total_cost(
        self,
        index: int,
        volume_scale: float = 1.0,
        _shares: "tuple[dict, ...] | None" = None,
    ) -> TotalCost:
        """Per-unit total cost of system ``index`` at a volume scale."""
        quantity = self.portfolio.systems[index].quantity
        if volume_scale != 1.0:
            quantity = quantity * volume_scale
        return TotalCost(
            re=self.re[index],
            amortized_nre=self.amortized_nre(index, volume_scale, _shares),
            quantity=quantity,
        )

    def evaluate(self, volume_scale: float = 1.0) -> PortfolioCosts:
        """Every member's cost plus the quantity-weighted average."""
        if not (volume_scale > 0):
            raise InvalidParameterError(
                f"volume scale must be > 0, got {volume_scale}"
            )
        shares = self._share_maps(volume_scale)
        costs = tuple(
            self.total_cost(index, volume_scale, shares)
            for index in range(len(self.portfolio.systems))
        )
        # Same fold as Portfolio.average_cost over scaled quantities.
        spend = fold_sum(cost.total * cost.quantity for cost in costs)
        total_quantity = fold_sum(cost.quantity for cost in costs)
        return PortfolioCosts(
            portfolio=self.portfolio,
            volume_scale=volume_scale,
            costs=costs,
            average=spend / total_quantity,
        )

    # ------------------------------------------------------------------
    # vectorized multi-scale evaluation
    # ------------------------------------------------------------------

    def _matrices(self) -> "_PortfolioMatrices":
        """The (lazily built, cached) dense matrices of this portfolio."""
        matrices = getattr(self, "_matrices_cache", None)
        if matrices is None:
            matrices = _PortfolioMatrices(self)
            self._matrices_cache = matrices
        return matrices

    def solve(self, scales: Sequence[float]) -> PortfolioVolumeSolve:
        """Every member's cost at every volume scale, as dense arrays.

        The numpy path runs entirely over the decomposition's design x
        system matrices — no cost objects, no per-scale dict passes —
        and stays bit-identical to :meth:`evaluate` per scale; without
        numpy it falls back to scalar :meth:`evaluate` calls (same
        results, nested tuples instead of ndarrays).
        """
        if not scales:
            raise InvalidParameterError("solve needs at least one scale")
        for scale in scales:
            if not (scale > 0):
                raise InvalidParameterError(
                    f"volume scale must be > 0, got {scale}"
                )
        scales = tuple(float(scale) for scale in scales)
        if _np is None:
            return self._solve_scalar(scales)
        solved = self._matrices().solve(scales)
        return PortfolioVolumeSolve(
            decomposition=self, scales=scales, **solved
        )

    def _solve_scalar(self, scales: tuple[float, ...]) -> PortfolioVolumeSolve:
        """numpy-free :meth:`solve`: scalar evaluates, tuple tables."""
        rows: dict[str, list[tuple[float, ...]]] = {
            name: []
            for name in (
                "totals", "quantities",
                "nre_modules", "nre_chips", "nre_packages", "nre_d2d",
            )
        }
        averages = []
        for scale in scales:
            costs = self.evaluate(scale)
            averages.append(costs.average)
            rows["totals"].append(tuple(cost.total for cost in costs.costs))
            rows["quantities"].append(
                tuple(cost.quantity for cost in costs.costs)
            )
            for component in ("modules", "chips", "packages", "d2d"):
                rows[f"nre_{component}"].append(
                    tuple(
                        getattr(cost.amortized_nre, component)
                        for cost in costs.costs
                    )
                )
        return PortfolioVolumeSolve(
            decomposition=self,
            scales=scales,
            averages=tuple(averages),
            **{name: tuple(table) for name, table in rows.items()},
        )


class PortfolioEngine:
    """Batched portfolio evaluation over cached decompositions."""

    def __init__(self):
        # Identity-keyed with `is`-verified entries: portfolios are
        # eq-by-identity objects, and a die-cost override changes every
        # RE price, so it is part of the key.
        self._decompositions: dict[
            tuple[int, int],
            tuple[Portfolio, "Callable | None", PortfolioDecomposition],
        ] = {}

    # ------------------------------------------------------------------

    def decompose(
        self,
        portfolio: Portfolio,
        die_cost_fn: "Callable | None" = None,
    ) -> PortfolioDecomposition:
        """The (cached) decomposition of ``portfolio``.

        ``die_cost_fn`` optionally replaces the default die pricing;
        decompositions are cached per (portfolio, override) pair.
        """
        key = (id(portfolio), id(die_cost_fn))
        entry = self._decompositions.get(key)
        if entry is not None and entry[0] is portfolio and entry[1] is die_cost_fn:
            return entry[2]
        decomposition = PortfolioDecomposition(
            portfolio, die_cost_fn=die_cost_fn
        )
        if len(self._decompositions) >= _DECOMPOSITION_CACHE_MAXSIZE:
            self._decompositions.clear()
        self._decompositions[key] = (portfolio, die_cost_fn, decomposition)
        return decomposition

    def evaluate(
        self,
        portfolio: Portfolio,
        volume_scale: float = 1.0,
        die_cost_fn: "Callable | None" = None,
    ) -> PortfolioCosts:
        """Price every member of ``portfolio`` in one batched call."""
        return self.decompose(portfolio, die_cost_fn).evaluate(volume_scale)

    def volume_solve(
        self,
        portfolio: Portfolio,
        scales: Sequence[float],
        die_cost_fn: "Callable | None" = None,
    ) -> PortfolioVolumeSolve:
        """Vectorized closed-form volume sweep, as dense arrays.

        The thousand-system front-end: one decomposition, one numpy
        solve over design x system matrices, zero cost-object
        construction.  See :class:`PortfolioVolumeSolve`.
        """
        return self.decompose(portfolio, die_cost_fn).solve(scales)

    def clear_caches(self) -> None:
        """Drop cached decompositions (die costs stay in
        ``repro.wafer.diecache``)."""
        self._decompositions.clear()
