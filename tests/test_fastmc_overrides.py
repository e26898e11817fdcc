"""Fast-path Monte Carlo with die-cost overrides and the scalar fallback.

Two contracts:

* ``monte_carlo_cost`` accepts registry-named yield models / wafer
  geometries (``die_cost_fn``) and stays draw-for-draw bit-identical
  to the object-rebuilding ``monte_carlo_cost_naive`` under them;
* with numpy absent, the fast and naive samplers still produce the
  identical draw stream from the same seed — the scalar fallback is
  the single per-call code path, not a reimplementation.
"""

import random

import pytest

from repro.config import ConfigRegistries
from repro.engine import fastmc
from repro.engine.fastmc import MonteCarloPlan, sample_re_costs
from repro.errors import InvalidParameterError
from repro.explore.montecarlo import monte_carlo_cost, monte_carlo_cost_naive
from repro.explore.partition import partition_monolith, soc_reference
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.yieldmodel.sampling import DefectDensityPrior


def _systems():
    return [
        soc_reference(400.0, get_node("7nm")),
        partition_monolith(800.0, get_node("5nm"), 4, interposer_25d()),
        partition_monolith(600.0, get_node("7nm"), 3, mcm()),
    ]


def _override(yield_model="poisson", wafer_geometry="300mm"):
    return ConfigRegistries().die_cost_fn(yield_model, wafer_geometry)


class TestFastWithOverrides:
    @pytest.mark.parametrize("system", _systems(), ids=lambda s: s.name)
    def test_fast_matches_naive_under_override(self, system):
        override = _override()
        fast = monte_carlo_cost(
            system, draws=120, sigma=0.2, seed=11, die_cost_fn=override
        )
        naive = monte_carlo_cost_naive(
            system, draws=120, sigma=0.2, seed=11, die_cost_fn=override
        )
        assert fast.samples == naive.samples

    def test_auto_with_override_matches_naive(self):
        system = partition_monolith(500.0, get_node("7nm"), 2, mcm())
        override = _override("murphy", "")
        auto = monte_carlo_cost(
            system, draws=90, seed=3, die_cost_fn=override
        )
        naive = monte_carlo_cost_naive(
            system, draws=90, seed=3, die_cost_fn=override
        )
        assert auto.samples == naive.samples

    def test_override_changes_the_distribution(self):
        system = partition_monolith(600.0, get_node("5nm"), 3, mcm())
        base = monte_carlo_cost(system, draws=60, seed=1)
        priced = monte_carlo_cost(
            system, draws=60, seed=1, die_cost_fn=_override("poisson", "300mm")
        )
        assert base.samples != priced.samples

    def test_geometry_override_reaches_compile_time_raw(self):
        """The override prices the compile-time raw cost too: a wafer
        with edge exclusion fits fewer dies, so raw cost rises."""
        from repro.registry.geometries import wafer_geometry_registry

        registry = wafer_geometry_registry().child()
        registry.register_spec(
            "lossy", {"base": "300mm", "edge_exclusion": 5.0}
        )
        registries = ConfigRegistries(geometries=registry)
        system = soc_reference(400.0, get_node("7nm"))
        plain = MonteCarloPlan.compile(system)
        priced = MonteCarloPlan.compile(
            system, die_cost_fn=registries.die_cost_fn("", "lossy")
        )
        assert priced.terms[0].raw > plain.terms[0].raw

    def test_evaluate_batch_rejects_override_plans(self):
        pytest.importorskip("numpy")
        system = partition_monolith(500.0, get_node("7nm"), 2, mcm())
        plan = MonteCarloPlan.compile(system, die_cost_fn=_override())
        with pytest.raises(InvalidParameterError, match="override"):
            plan.evaluate_batch([[1.0]])

    def test_engine_monte_carlo_front_end(self):
        """The engine-layer sampler behind ``monte_carlo_cost`` matches
        the oracle with and without an override."""
        system = partition_monolith(800.0, get_node("5nm"), 4, mcm())
        samples = sample_re_costs(system, draws=80, sigma=0.25, seed=9)
        naive = monte_carlo_cost_naive(system, draws=80, sigma=0.25, seed=9)
        assert tuple(samples) == naive.samples
        override = _override()
        priced = sample_re_costs(system, draws=40, seed=2, die_cost_fn=override)
        priced_naive = monte_carlo_cost_naive(
            system, draws=40, seed=2, die_cost_fn=override
        )
        assert tuple(priced) == priced_naive.samples


class TestScalarFallbackStream:
    """Satellite regression: identical streams with numpy absent."""

    def _force_scalar(self, request):
        request.getfixturevalue("no_numpy")

    @pytest.mark.parametrize("system", _systems()[:2], ids=lambda s: s.name)
    def test_fast_equals_naive_without_numpy(self, system, request):
        self._force_scalar(request)
        fast = sample_re_costs(system, draws=150, sigma=0.15, seed=7)
        naive = monte_carlo_cost_naive(system, draws=150, sigma=0.15, seed=7)
        assert tuple(fast) == naive.samples

    def test_fallback_equals_vectorized_samples(self, request):
        """numpy presence changes speed only, never a draw."""
        system = partition_monolith(700.0, get_node("5nm"), 5, mcm())
        vectorized = sample_re_costs(system, draws=400, sigma=0.3, seed=5)
        self._force_scalar(request)
        scalar = sample_re_costs(system, draws=400, sigma=0.3, seed=5)
        assert scalar == vectorized

    def test_fallback_with_override_without_numpy(self, request):
        self._force_scalar(request)
        system = partition_monolith(500.0, get_node("7nm"), 2, mcm())
        override = _override()
        fast = sample_re_costs(system, draws=100, seed=4, die_cost_fn=override)
        naive = monte_carlo_cost_naive(
            system, draws=100, seed=4, die_cost_fn=override
        )
        assert tuple(fast) == naive.samples

    def test_sample_loop_shares_the_prior_stream(self, request):
        """The scalar loop draws through the same single code path the
        vectorized sampler uses (repro.engine.rng.sample_prior)."""
        self._force_scalar(request)
        system = partition_monolith(600.0, get_node("7nm"), 3, mcm())
        plan = MonteCarloPlan.compile(system)
        prior = DefectDensityPrior(mode=1.0, sigma=0.15)
        rng = random.Random(8)
        samples = fastmc._sample_loop(plan, rng, prior, 50)
        oracle = random.Random(8)
        expected = []
        for _ in range(50):
            scales = {
                name: prior.sample(oracle) for name in plan.node_names
            }
            expected.append(plan.evaluate(scales))
        assert samples == expected
        assert rng.getstate() == oracle.getstate()
