"""Batched cost-evaluation engine.

The layers, documented in PERFORMANCE.md:

* memoized die costs keyed on the hashable (area, node incl. defect
  density, wafer geometry, yield model) tuple — re-exported from
  ``repro.wafer.diecache``, which lives beside the cost it memoizes so
  core never imports upward from the engine;
* ``repro.engine.costengine`` — :class:`CostEngine`, a stateless
  front-end for equal-partition studies (``partition_sweep`` /
  ``partition_grid``), which the figures, the scenario runner and the
  CLI ``sweep`` route through;
* ``repro.engine.partition_columns`` — the equal-partition kernel:
  chip areas, die costs and per-chip sums of ``n`` equal chiplets (or
  the SoC reference) as columns over module areas, shared by
  ``CostEngine.partition_grid`` and the design-space evaluator;
* ``repro.engine.rng`` — vectorized ``random.Random.gauss`` /
  defect-prior streams via exact MT19937 state transplant,
  bit-identical to the per-call oracle;
* ``repro.engine.fastmc`` — closed-form Monte-Carlo evaluation that
  prices each draw as pure float arithmetic on re-sampled yields
  (``sample_re_costs``, behind
  :func:`repro.explore.montecarlo.monte_carlo_cost`);
* ``repro.engine.fastportfolio`` — :class:`PortfolioEngine` batch
  evaluation of reuse portfolios (SCMS/OCME/FSMC): shared design-unit
  NRE vectors plus memoized RE costs, with closed-form volume sweeps.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.wafer.diecache": (
        "cached_die_cost", "clear_die_cost_cache", "die_cost_cache_info",
        "no_cache", "DIE_COST_CACHE_MAXSIZE",
    ),
    "repro.packaging.base": ("PackagingAffine",),
    "repro.engine.packaging_affine": ("linearize_packaging",),
    "repro.engine.costengine": (
        "CostEngine", "GridPoint", "GridResult",
    ),
    "repro.engine.fastmc": ("MonteCarloPlan", "sample_re_costs"),
    "repro.engine.rng": ("gauss_fill", "sample_prior", "sample_prior_array"),
    "repro.engine.fastportfolio": (
        "PortfolioCosts", "PortfolioDecomposition", "PortfolioEngine",
    ),
})
