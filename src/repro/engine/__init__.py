"""Batched cost-evaluation engine.

Three layers, documented in PERFORMANCE.md:

* memoized die costs keyed on the hashable (area, node incl. defect
  density, wafer geometry, yield model) tuple — re-exported from
  ``repro.wafer.diecache``, which lives beside the cost it memoizes so
  core never imports upward from the engine;
* ``repro.engine.costengine`` — :class:`CostEngine` batch API
  (``evaluate_many`` / ``sweep`` / ``grid``), which ``repro.explore``
  and the CLI route through;
* ``repro.engine.rng`` — vectorized ``random.Random.gauss`` /
  defect-prior streams via exact MT19937 state transplant,
  bit-identical to the per-call oracle;
* ``repro.engine.fastmc`` — closed-form Monte-Carlo evaluation that
  prices each draw as pure float arithmetic on re-sampled yields;
* ``repro.engine.fastportfolio`` — :class:`PortfolioEngine` batch
  evaluation of reuse portfolios (SCMS/OCME/FSMC): shared design-unit
  NRE vectors plus memoized RE costs, with closed-form volume sweeps.

Attributes resolve lazily (PEP 562) so that low-level modules — e.g.
``repro.core.re_cost`` importing the die cache — never pull the batch
layers into their import graph.
"""

from __future__ import annotations

_EXPORTS = {
    "cached_die_cost": "repro.wafer.diecache",
    "clear_die_cost_cache": "repro.wafer.diecache",
    "die_cost_cache_info": "repro.wafer.diecache",
    "no_cache": "repro.wafer.diecache",
    "DIE_COST_CACHE_MAXSIZE": "repro.wafer.diecache",
    "PackagingAffine": "repro.packaging.base",
    "linearize_packaging": "repro.engine.packaging_affine",
    "CostEngine": "repro.engine.costengine",
    "GridPoint": "repro.engine.costengine",
    "GridResult": "repro.engine.costengine",
    "default_engine": "repro.engine.costengine",
    "MonteCarloPlan": "repro.engine.fastmc",
    "sample_re_costs": "repro.engine.fastmc",
    "gauss_fill": "repro.engine.rng",
    "sample_prior": "repro.engine.rng",
    "sample_prior_array": "repro.engine.rng",
    "partition_re_cost": "repro.engine.fastsweep",
    "soc_re_cost": "repro.engine.fastsweep",
    "PortfolioCosts": "repro.engine.fastportfolio",
    "PortfolioDecomposition": "repro.engine.fastportfolio",
    "PortfolioEngine": "repro.engine.fastportfolio",
    "default_portfolio_engine": "repro.engine.fastportfolio",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
