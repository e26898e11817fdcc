"""Monte-Carlo cost uncertainty.

Propagates defect-density uncertainty (``repro.yieldmodel.sampling``)
through a system's RE cost, yielding a distribution summary.  Pure
standard library; deterministic given the seed.

Two evaluation paths produce identical samples:

* the **fast path** (default when no custom metric is given) compiles a
  :class:`repro.engine.fastmc.MonteCarloPlan` once and evaluates each
  draw as closed-form float arithmetic on re-sampled yields, drawing
  the prior stream vectorized via ``repro.engine.rng``'s MT19937 state
  transplant (registry die-cost overrides re-price per draw through
  the same plan);
* the **naive path** (:func:`monte_carlo_cost_naive`) rebuilds a fully
  validated ``System``/``Chip`` graph per draw.  It is kept as the
  parity oracle — ``tests/test_engine.py`` asserts draw-for-draw
  agreement — and as the only path supporting a custom ``metric``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.core.re_cost import compute_re_cost
from repro.core.system import System
from repro.core.chip import Chip
from repro.errors import InvalidParameterError
from repro.yieldmodel.sampling import DefectDensityPrior

_METHODS = ("auto", "fast", "naive")


@dataclass(frozen=True)
class CostDistribution:
    """Summary statistics of a sampled cost distribution (USD/unit).

    Derived statistics (mean, std, the sorted sample order) are
    memoized on first use — repeated ``quantile``/``std`` calls reuse
    them instead of re-sorting and re-summing the sample tuple.
    """

    samples: tuple[float, ...]

    @cached_property
    def _sorted_samples(self) -> tuple[float, ...]:
        return tuple(sorted(self.samples))

    @cached_property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @cached_property
    def std(self) -> float:
        mu = self.mean
        return math.sqrt(
            sum((x - mu) ** 2 for x in self.samples) / len(self.samples)
        )

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must be in [0, 1], got {q}")
        ordered = self._sorted_samples
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


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
    metric: Callable[[System], float] | None = None,
) -> CostDistribution:
    """Object-rebuilding Monte-Carlo sampler (the parity oracle).

    Rebuilds a perturbed, fully validated system per draw and evaluates
    ``metric`` (default: total RE cost per unit) on it.  Slow but
    assumption-free; :func:`monte_carlo_cost` routes here only for
    custom metrics or on explicit request.
    """
    if draws <= 0:
        raise InvalidParameterError(f"draws must be > 0, got {draws}")
    rng = random.Random(seed)
    node_names = sorted({chip.node.name for chip in system.chips})
    prior = DefectDensityPrior(mode=1.0, sigma=sigma)
    evaluate = metric or (lambda s: compute_re_cost(s).total)
    samples = []
    for _ in range(draws):
        scales = {name: prior.sample(rng) for name in node_names}
        samples.append(evaluate(_perturbed_system(system, scales)))
    return CostDistribution(samples=tuple(samples))


def monte_carlo_cost(
    system: System,
    draws: int = 500,
    sigma: float = 0.15,
    seed: int = 0,
    metric: Callable[[System], float] | None = None,
    method: str = "auto",
    die_cost_fn: Callable | None = None,
) -> CostDistribution:
    """Sample the per-unit RE cost under defect-density uncertainty.

    Each draw scales every logic node's defect density by an independent
    log-normal factor with the given sigma (the packaging carrier yields
    stay at their catalog values; perturbing them as well is a one-line
    extension through ``metric``).

    Args:
        system: System to price.
        draws: Number of samples.
        sigma: Log-normal sigma of the defect-density factor.
        seed: RNG seed.
        metric: Override for the sampled quantity; defaults to total RE
            cost per unit.  A custom metric always uses the naive path.
        method: ``"auto"`` (closed-form fast path unless a metric is
            given), ``"fast"`` (closed form; rejects a metric) or
            ``"naive"`` (per-draw object rebuilding).
        die_cost_fn: Optional ``(node, area) -> DieCost`` override
            (registry-named yield models / wafer geometries,
            :meth:`repro.config.ConfigRegistries.die_cost_fn`) applied
            to every draw on every path — the fast plan re-prices each
            draw's chips through it on defect-scaled nodes, so
            ``method="fast"`` accepts overrides uniformly.
    """
    if method not in _METHODS:
        raise InvalidParameterError(
            f"method must be one of {_METHODS}, got {method!r}"
        )
    if die_cost_fn is not None and metric is not None:
        raise InvalidParameterError(
            "pass either metric or die_cost_fn, not both"
        )
    if method == "fast" and metric is not None:
        raise InvalidParameterError(
            "the closed-form fast path samples the RE total; "
            "use method='naive' (or 'auto') for a custom metric"
        )
    if metric is None and method != "naive":
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
    if die_cost_fn is not None:
        metric = lambda s: compute_re_cost(  # noqa: E731
            s, die_cost_fn=die_cost_fn
        ).total
    return monte_carlo_cost_naive(
        system, draws=draws, sigma=sigma, seed=seed, metric=metric
    )
