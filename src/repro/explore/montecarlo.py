"""Monte-Carlo cost uncertainty.

Propagates defect-density uncertainty (``repro.yieldmodel.sampling``)
through a system's RE cost, yielding a distribution summary.
Deterministic given the seed; numpy, when installed, only speeds it up.

Two implementations produce identical samples:

* :func:`monte_carlo_cost` compiles a
  :class:`repro.engine.fastmc.MonteCarloPlan` once and evaluates each
  draw as closed-form float arithmetic on re-sampled yields, drawing
  the prior stream vectorized via ``repro.engine.rng``'s MT19937 state
  transplant (registry die-cost overrides re-price per draw through
  the same plan);
* :func:`monte_carlo_cost_naive` rebuilds a fully validated
  ``System``/``Chip`` graph per draw and prices it with
  :func:`repro.core.re_cost.compute_re_cost`.  It is the parity
  oracle: the tests hold the two ``==`` draw for draw, with and
  without a ``die_cost_fn``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

try:  # numpy takes the statistics as columns; never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

from repro.canon import fold_sum
from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.core.chip import Chip
from repro.errors import InvalidParameterError
from repro.yieldmodel.sampling import DefectDensityPrior


@dataclass(frozen=True)
class CostDistribution:
    """Summary statistics of a sampled cost distribution (USD/unit).

    Derived statistics (mean, std, the sorted sample order) are
    memoized on first use — repeated ``quantile``/``std`` calls reuse
    them instead of re-sorting and re-summing the sample tuple.

    Every statistic is a plain ``float`` with the bits of the scalar
    definition: sums are the left-to-right fold of
    :func:`repro.canon.fold_sum` and squares go through libm ``pow``
    like ``x ** 2``.  With numpy the samples become one float64 column
    (the fold is ``cumsum``, the order one ``sort``); without it the
    same expressions run over the tuple.  The two agree bit for bit on
    finite samples without ``-0.0`` (a sort may place ``-0.0`` and
    ``0.0`` either way round; costs are positive).
    """

    samples: tuple[float, ...]

    @cached_property
    def _column(self):
        return _np.fromiter(self.samples, _np.float64, len(self.samples))

    @cached_property
    def _sorted_samples(self):
        if _np is None:
            return tuple(sorted(self.samples))
        return _np.sort(self._column)

    @cached_property
    def mean(self) -> float:
        if _np is None:
            return fold_sum(self.samples) / len(self.samples)
        return float(_np.cumsum(self._column)[-1]) / len(self.samples)

    @cached_property
    def std(self) -> float:
        mu = self.mean
        n = len(self.samples)
        if _np is None:
            squares = fold_sum((x - mu) ** 2 for x in self.samples)
        else:
            # libm pow per element, as ``** 2`` (``d * d`` differs in
            # the last bit for some d).
            squared = _np.fromiter(
                map(pow, memoryview(self._column - mu), repeat(2)),
                _np.float64,
                n,
            )
            squares = float(_np.cumsum(squared)[-1])
        return math.sqrt(squares / n)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must be in [0, 1], got {q}")
        ordered = self._sorted_samples
        if len(ordered) == 1:
            return float(ordered[0])
        position = q * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return float(ordered[lower])
        weight = position - lower
        return (
            float(ordered[lower]) * (1.0 - weight)
            + float(ordered[upper]) * weight
        )


def _perturbed_system(system: System, scales: dict[str, float]) -> System:
    """Copy of ``system`` with per-node defect densities scaled."""
    cache: dict[int, Chip] = {}
    chips = []
    for chip in system.chips:
        if id(chip) not in cache:
            scale = scales.get(chip.node.name, 1.0)
            node = chip.node.with_defect_density(chip.node.defect_density * scale)
            cache[id(chip)] = Chip(
                name=chip.name, modules=chip.modules, node=node, d2d=chip.d2d
            )
        chips.append(cache[id(chip)])
    return System(
        name=system.name,
        chips=tuple(chips),
        integration=system.integration,
        quantity=system.quantity,
        package=system.package,
    )


def monte_carlo_cost_naive(
    system: System,
    draws: int = 500,
    sigma: float = 0.15,
    seed: int = 0,
    die_cost_fn: Callable | None = None,
) -> CostDistribution:
    """Object-rebuilding Monte-Carlo sampler (the parity oracle).

    Rebuilds a perturbed, fully validated system per draw and prices
    its total RE cost per unit with
    :func:`repro.core.re_cost.compute_re_cost` (under ``die_cost_fn``
    when given).  Slow but assumption-free; it takes the same
    arguments as :func:`monte_carlo_cost` and returns the same samples.
    """
    if draws <= 0:
        raise InvalidParameterError(f"draws must be > 0, got {draws}")
    rng = random.Random(seed)
    node_names = sorted({chip.node.name for chip in system.chips})
    prior = DefectDensityPrior(mode=1.0, sigma=sigma)
    samples = []
    for _ in range(draws):
        scales = {name: prior.sample(rng) for name in node_names}
        samples.append(
            compute_re_cost(
                _perturbed_system(system, scales), die_cost_fn=die_cost_fn
            ).total
        )
    return CostDistribution(samples=tuple(samples))


def monte_carlo_cost(
    system: System,
    draws: int = 500,
    sigma: float = 0.15,
    seed: int = 0,
    die_cost_fn: Callable | None = None,
) -> CostDistribution:
    """Sample the per-unit RE cost under defect-density uncertainty.

    Each draw scales every logic node's defect density by an independent
    log-normal factor with the given sigma (the packaging carrier yields
    stay at their catalog values).

    Args:
        system: System to price.
        draws: Number of samples.
        sigma: Log-normal sigma of the defect-density factor.
        seed: RNG seed.
        die_cost_fn: Optional ``(node, area) -> DieCost`` override
            (registry-named yield models / wafer geometries,
            :meth:`repro.config.ConfigRegistries.die_cost_fn`) applied
            to every draw — the closed-form plan re-prices each draw's
            chips through it on defect-scaled nodes.
    """
    from repro.engine.fastmc import sample_re_costs

    return CostDistribution(
        samples=tuple(
            sample_re_costs(
                system,
                draws=draws,
                sigma=sigma,
                seed=seed,
                die_cost_fn=die_cost_fn,
            )
        )
    )
