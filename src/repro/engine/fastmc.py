"""Closed-form Monte-Carlo evaluation of RE cost under defect uncertainty.

The naive Monte-Carlo path (kept as the parity oracle in
``repro.explore.montecarlo``) rebuilds a fully validated
``System``/``Chip`` object graph per draw and re-derives every die cost
from scratch.  Nothing in that work depends on the draw except the die
yields: a defect-density scale ``s`` leaves die areas, dies-per-wafer
and packaging geometry untouched and only moves

    y_i(s) = (1 + (D_i * s) * S_i / 100 / c_i) ** (-c_i)

per chip, after which the per-unit RE total is pure float arithmetic:

    total(s) = raw_chips + sum_i raw_i * (1/y_i - 1) * n_i
               + A + B + k * kgd_total(s)

with ``A``/``B``/``k`` the packaging coefficients the system's
technology reports (``repro.engine.packaging_affine``).
:class:`MonteCarloPlan` precomputes the per-chip structure once and
evaluates each draw in a few dozen floating-point operations,
replicating the oracle's expression ordering bit-for-bit
(negative-binomial yield, ``raw / y`` KGD pricing and the
``RECost.total`` association).

The pipeline is vectorized end-to-end when numpy is available:

* **prior draws** come from ``repro.engine.rng`` — the MT19937 state of
  the seeded ``random.Random`` is transplanted into numpy, the
  Box-Muller ``gauss`` cadence (cached spare included) is replicated
  over arrays, and the stream is bit-identical to per-call draws;
* **evaluation** runs through :meth:`MonteCarloPlan.evaluate_batch`:
  the exact IEEE-754 operations (multiply, divide, add) vectorize over
  the draw axis in the same per-term order as the scalar loop, while
  the yield's ``pow`` stays on the same libm calls the oracle makes
  (numpy's SIMD ``power`` differs from libm in the last ulp, which
  would break the bit-parity contract).

Without numpy the same stream comes from the per-call stdlib loop
(``repro.engine.rng`` falls back to it — one scalar code path) and the
per-draw scalar evaluator is used; both pipelines are draw-for-draw
bit-identical to the oracle (``tests/test_engine.py``,
``tests/test_fastmc_vectorized.py``).

Registry-named yield models / wafer geometries price through the same
plan: ``compile(system, die_cost_fn=...)`` captures the override (the
``(node, area) -> DieCost`` closure of
:meth:`repro.config.ConfigRegistries.die_cost_fn`), and each draw then
re-prices every unique chip through it on a defect-scaled node —
exactly the calls ``compute_re_cost`` would make on a perturbed system,
without rebuilding the object graph.  The prior stream stays vectorized
and the packaging coefficients stay fixed, so
:func:`repro.explore.montecarlo.monte_carlo_cost` prices every override
here, draw-for-draw equal to
``monte_carlo_cost_naive(..., die_cost_fn=...)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

try:  # numpy accelerates the draw loop; the model never requires it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _sample_loop tests
    _np = None

from repro.core.system import System
from repro.wafer.diecache import cached_die_cost
from repro.engine.packaging_affine import linearize_packaging
from repro.engine.rng import sample_prior, sample_prior_array
from repro.errors import InvalidParameterError
from repro.packaging.base import PackagingAffine
from repro.process.node import ProcessNode
from repro.wafer.die import DieCost, DieSpec
from repro.yieldmodel.models import MM2_PER_CM2
from repro.yieldmodel.sampling import DefectDensityPrior


@dataclass(frozen=True)
class _ChipTerm:
    """Per-unique-chip constants of the closed form."""

    node_name: str
    defect_density: float
    cluster_param: float
    area: float
    raw: float
    count: int
    node: ProcessNode


@dataclass(frozen=True)
class MonteCarloPlan:
    """Precompiled closed-form evaluator for one system.

    ``evaluate`` maps per-node defect-density scales to the per-unit RE
    total, matching ``compute_re_cost(_perturbed_system(system, scales)
    [, die_cost_fn]).total`` exactly — with the plan's ``die_cost_fn``
    (if any) supplying every die price, like the naive path's.
    """

    node_names: tuple[str, ...]
    terms: tuple[_ChipTerm, ...]
    affine: PackagingAffine
    die_cost_fn: Callable[[ProcessNode, float], DieCost] | None = None

    @classmethod
    def compile(
        cls,
        system: System,
        die_cost_fn: Callable[[ProcessNode, float], DieCost] | None = None,
    ) -> "MonteCarloPlan":
        """Precompute the draw-invariant structure of ``system``.

        ``die_cost_fn`` optionally replaces the default (memoized
        negative-binomial) die pricing for compile-time raw costs *and*
        every per-draw re-pricing — the hook registry-named yield
        models / wafer geometries arrive through.
        """
        terms = []
        for chip, count in system.unique_chips():
            if die_cost_fn is None:
                cost = cached_die_cost(DieSpec(area=chip.area, node=chip.node))
            else:
                cost = die_cost_fn(chip.node, chip.area)
            terms.append(
                _ChipTerm(
                    node_name=chip.node.name,
                    defect_density=chip.node.defect_density,
                    cluster_param=chip.node.cluster_param,
                    area=chip.area,
                    raw=cost.raw,
                    count=count,
                    node=chip.node,
                )
            )
        packager = (
            system.package if system.package is not None else system.integration
        )
        affine = linearize_packaging(packager, system.chip_areas)
        return cls(
            node_names=tuple(sorted({chip.node.name for chip in system.chips})),
            terms=tuple(terms),
            affine=affine,
            die_cost_fn=die_cost_fn,
        )

    def evaluate(self, scales: dict[str, float]) -> float:
        """Per-unit RE total with each node's defect density scaled."""
        raw_chips = 0.0
        chip_defects = 0.0
        kgd_total = 0.0
        for term in self.terms:
            scale = scales.get(term.node_name, 1.0)
            if self.die_cost_fn is None:
                # Exact replication of NegativeBinomialYield.die_yield on
                # the perturbed node (D' = D * s), then DieCost's
                # raw/yield split.
                density = term.defect_density * scale
                defects = density * term.area / MM2_PER_CM2
                die_yield = (1.0 + defects / term.cluster_param) ** (
                    -term.cluster_param
                )
                raw = term.raw
                total = raw / die_yield
                defect = total - raw
            else:
                # Re-price through the override on the defect-scaled
                # node — the identical call the naive path makes per
                # perturbed chip, minus the object-graph rebuild.
                node = term.node.with_defect_density(
                    term.defect_density * scale
                )
                cost = self.die_cost_fn(node, term.area)
                raw = cost.raw
                defect = cost.defect
                total = cost.total
            raw_chips += raw * term.count
            chip_defects += defect * term.count
            kgd_total += total * term.count

        return (raw_chips + chip_defects) + self.affine.total_with(kgd_total)

    def evaluate_batch(
        self,
        scale_rows: Sequence[Sequence[float]],
    ) -> list[float]:
        """Vectorized :meth:`evaluate` over many draws (needs numpy).

        ``scale_rows[d]`` holds draw ``d``'s per-node scales in
        :attr:`node_names` order.  Each draw's result is bit-identical
        to ``evaluate({name: scale, ...})``: the exact IEEE operations
        vectorize over the draw axis in the same per-term order, and
        the yield's ``pow`` runs through Python's libm binding exactly
        like the scalar path (numpy's SIMD ``power`` can differ in the
        last ulp).
        """
        if _np is None:
            raise InvalidParameterError(
                "MonteCarloPlan.evaluate_batch needs numpy; "
                "use evaluate() per draw instead"
            )
        if self.die_cost_fn is not None:
            raise InvalidParameterError(
                "evaluate_batch prices with the baked-in negative "
                "binomial; a die-cost override re-prices per draw — "
                "use evaluate() per draw instead"
            )
        index = {name: i for i, name in enumerate(self.node_names)}
        scales = _np.asarray(scale_rows, dtype=_np.float64).reshape(
            -1, len(self.node_names) or 1
        )
        draws = scales.shape[0]
        raw_chips = 0.0
        chip_defects = _np.zeros(draws)
        kgd_total = _np.zeros(draws)
        # Equal-split partitions repeat one (node, area) shape across
        # terms; the yield vector is value-keyed so its pow runs once.
        yield_cache: dict[tuple, "_np.ndarray"] = {}
        for term in self.terms:
            key = (
                term.node_name,
                term.defect_density,
                term.cluster_param,
                term.area,
            )
            die_yield = yield_cache.get(key)
            if die_yield is None:
                scale = scales[:, index[term.node_name]]
                density = term.defect_density * scale
                defects = density * term.area / MM2_PER_CM2
                base = 1.0 + defects / term.cluster_param
                exponent = -term.cluster_param
                # libm pow per element: bit-identical to the scalar `**`.
                die_yield = _np.fromiter(
                    map(pow, memoryview(base), repeat(exponent)),
                    _np.float64,
                    draws,
                )
                yield_cache[key] = die_yield
            total = term.raw / die_yield
            defect = total - term.raw
            raw_chips += term.raw * term.count
            chip_defects = chip_defects + defect * term.count
            kgd_total = kgd_total + total * term.count
        packaging_total = self.affine.total_with(kgd_total)
        return ((raw_chips + chip_defects) + packaging_total).tolist()


def sample_re_costs(
    system: System,
    draws: int = 500,
    sigma: float = 0.15,
    seed: int = 0,
    die_cost_fn: Callable[[ProcessNode, float], DieCost] | None = None,
) -> list[float]:
    """Fast-path sampler mirroring the naive Monte-Carlo loop.

    Draw-for-draw identical to the object-rebuilding oracle: the RNG
    stream, per-node scale assignment and cost arithmetic all match.
    Prior draws come vectorized from ``repro.engine.rng``; evaluation
    uses the numpy batch evaluator when numpy is installed and die
    pricing is the default, and the scalar per-draw loop otherwise.
    ``die_cost_fn`` carries registry-named yield-model /
    wafer-geometry overrides
    (:meth:`repro.config.ConfigRegistries.die_cost_fn`) into every
    draw's die pricing.
    """
    if draws <= 0:
        raise InvalidParameterError(f"draws must be > 0, got {draws}")
    plan = MonteCarloPlan.compile(system, die_cost_fn=die_cost_fn)
    rng = random.Random(seed)
    prior = DefectDensityPrior(mode=1.0, sigma=sigma)
    if _np is None or plan.die_cost_fn is not None:
        return _sample_loop(plan, rng, prior, draws)
    # The prior stream is draw-major in node_names order — exactly the
    # scalar dict fill — and bit-identical to per-call draws.
    flat = sample_prior_array(prior, rng, draws * len(plan.node_names))
    return plan.evaluate_batch(
        _np.asarray(flat, dtype=_np.float64).reshape(
            draws, len(plan.node_names)
        )
    )


def _sample_loop(
    plan: MonteCarloPlan,
    rng: random.Random,
    prior: DefectDensityPrior,
    draws: int,
) -> list[float]:
    """Scalar per-draw evaluator (numpy-free fallback and parity oracle).

    Shares the single prior-stream code path with the vectorized
    sampler (``repro.engine.rng.sample_prior``), so numpy presence can
    only change evaluation *speed*, never a draw.
    """
    names = plan.node_names
    width = len(names)
    flat = sample_prior(prior, rng, draws * width)
    samples = []
    for start in range(0, draws * width, width):
        scales = {
            name: flat[start + offset] for offset, name in enumerate(names)
        }
        samples.append(plan.evaluate(scales))
    return samples
