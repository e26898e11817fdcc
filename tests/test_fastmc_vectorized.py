"""Vectorized Monte-Carlo draws: bit parity and fallback behavior."""

import random

import pytest

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.system import multichip
from repro.d2d.overhead import FractionOverhead
from repro.engine.fastmc import MonteCarloPlan, _sample_loop, sample_re_costs
from repro.errors import InvalidParameterError
from repro.explore.montecarlo import monte_carlo_cost_naive
from repro.explore.partition import partition_monolith, soc_reference
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.yieldmodel.sampling import DefectDensityPrior

numpy = pytest.importorskip("numpy")


def _systems():
    n7, n14 = get_node("7nm"), get_node("14nm")
    hetero = multichip(
        "hetero",
        [
            Chip.of("a", (Module("ma", 150.0, n7),), n7,
                    d2d=FractionOverhead(0.1)),
            Chip.of("b", (Module("mb", 200.0, n14),), n14,
                    d2d=FractionOverhead(0.1)),
        ],
        mcm(),
    )
    return [
        soc_reference(400.0, n7),
        partition_monolith(800.0, get_node("5nm"), 4, interposer_25d()),
        partition_monolith(600.0, n7, 3, mcm()),
        hetero,
    ]


class TestBitParity:
    @pytest.mark.parametrize("system", _systems(), ids=lambda s: s.name)
    def test_vectorized_equals_oracle_exactly(self, system):
        """Draw-for-draw float equality against the object-rebuilding
        oracle — not approx: the parity contract is bitwise."""
        fast = sample_re_costs(system, draws=200, sigma=0.15, seed=11)
        naive = monte_carlo_cost_naive(system, draws=200, sigma=0.15, seed=11)
        assert tuple(fast) == naive.samples

    @pytest.mark.parametrize("system", _systems()[:2], ids=lambda s: s.name)
    def test_scalar_loop_equals_vectorized(self, system):
        """The numpy-free fallback produces the identical stream."""
        plan = MonteCarloPlan.compile(system)
        prior = DefectDensityPrior(mode=1.0, sigma=0.15)
        loop = _sample_loop(plan, random.Random(3), prior, 150)
        fast = sample_re_costs(system, draws=150, sigma=0.15, seed=3)
        assert loop == fast

    def test_evaluate_batch_matches_evaluate(self):
        system = partition_monolith(500.0, get_node("7nm"), 2, mcm())
        plan = MonteCarloPlan.compile(system)
        rows = [[0.8], [1.0], [1.3]]
        batch = plan.evaluate_batch(rows)
        scalar = [
            plan.evaluate({plan.node_names[0]: row[0]}) for row in rows
        ]
        assert batch == scalar

    def test_different_sigma_and_seed(self):
        system = partition_monolith(700.0, get_node("5nm"), 5, interposer_25d())
        for seed in (0, 1, 99):
            fast = sample_re_costs(system, draws=60, sigma=0.3, seed=seed)
            naive = monte_carlo_cost_naive(system, draws=60, sigma=0.3,
                                           seed=seed)
            assert tuple(fast) == naive.samples


class TestGuards:
    def test_zero_draws_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_re_costs(soc_reference(100.0, get_node("7nm")), draws=0)

    def test_returns_plain_floats(self):
        samples = sample_re_costs(
            soc_reference(100.0, get_node("7nm")), draws=5
        )
        assert all(type(value) is float for value in samples)
