"""Batched cost-evaluation engine: cache correctness, parity, batch API.

The engine's contract is that every fast path is *numerically
indistinguishable* from the naive path it replaces.  These tests hold
the memoized die costs, the closed-form partition sweeps and the
closed-form Monte Carlo bit-equal (well inside the 1e-9 acceptance
tolerance) to the object-building oracles across
SoC, MCM, InFO, 2.5D, 3D and package-reuse systems, and verify that
perturbed nodes never produce stale cache hits.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.package_design import PackageDesign
from repro.core.re_cost import compute_re_cost
from repro.core.system import System, multichip
from repro.d2d.overhead import FractionOverhead
from repro.engine import (
    CostEngine,
    cached_die_cost,
    clear_die_cost_cache,
    die_cost_cache_info,
    linearize_packaging,
    no_cache,
    sample_re_costs,
)
from repro.errors import InvalidParameterError
from repro.explore.montecarlo import (
    CostDistribution,
    monte_carlo_cost,
    monte_carlo_cost_naive,
)
from repro.explore.partition import partition_monolith, soc_reference
from repro.explore.sensitivity import system_tornado
from repro.packaging.info import info
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.packaging.soc import soc_package
from repro.packaging.stacked3d import stacked_3d
from repro.process.catalog import get_node
from repro.wafer.die import DieSpec, die_cost


def _reuse_system() -> System:
    """Two equal chiplets in a shared (reused) package design."""
    n7 = get_node("7nm")
    tech = mcm()
    d2d = FractionOverhead(0.10)
    a = Chip.of("reuse-a", (Module("ma", 150.0, n7),), n7, d2d=d2d)
    b = Chip.of("reuse-b", (Module("mb", 120.0, n7),), n7, d2d=d2d)
    design = PackageDesign.for_chips("shared-pkg", tech, (a.area, b.area))
    return System(
        name="reuse-sys",
        chips=(a, b),
        integration=tech,
        quantity=1e6,
        package=design,
    )


def _systems() -> list[System]:
    n5 = get_node("5nm")
    n7 = get_node("7nm")
    return [
        soc_reference(400.0, n5),
        partition_monolith(800.0, n5, 3, mcm()),
        partition_monolith(800.0, n5, 4, info()),
        partition_monolith(600.0, n7, 2, interposer_25d()),
        partition_monolith(600.0, n5, 3, stacked_3d()),
        _reuse_system(),
    ]


def _assert_re_equal(a, b):
    assert a.raw_chips == b.raw_chips
    assert a.chip_defects == b.chip_defects
    assert a.raw_package == b.raw_package
    assert a.package_defects == b.package_defects
    assert a.wasted_kgd == b.wasted_kgd
    assert a.chip_details == b.chip_details


class TestDieCache:
    def test_matches_direct_call(self, n5):
        spec = DieSpec(area=333.0, node=n5)
        assert cached_die_cost(spec) == die_cost(spec)

    def test_hits_are_counted(self, n5):
        clear_die_cost_cache()
        spec = DieSpec(area=212.0, node=n5)
        cached_die_cost(spec)
        before = die_cost_cache_info().hits
        cached_die_cost(DieSpec(area=212.0, node=n5))
        assert die_cost_cache_info().hits == before + 1

    def test_perturbed_node_never_hits_stale_entry(self, n5):
        clear_die_cost_cache()
        nominal = cached_die_cost(DieSpec(area=300.0, node=n5))
        perturbed_node = n5.with_defect_density(n5.defect_density * 1.5)
        perturbed = cached_die_cost(DieSpec(area=300.0, node=perturbed_node))
        assert perturbed.die_yield < nominal.die_yield
        assert perturbed.total > nominal.total
        # Alternating lookups keep returning the right entry.
        assert cached_die_cost(DieSpec(area=300.0, node=n5)) == nominal
        assert (
            cached_die_cost(DieSpec(area=300.0, node=perturbed_node)) == perturbed
        )

    def test_no_cache_bypasses(self, n5):
        clear_die_cost_cache()
        spec = DieSpec(area=123.0, node=n5)
        with no_cache():
            cached_die_cost(spec)
        assert die_cost_cache_info().currsize == 0


class TestEngineParity:
    @pytest.mark.parametrize("index", range(6))
    def test_evaluate_re_matches_naive(self, index):
        """A built system is priced by ``compute_re_cost`` on the shared
        die-cost memo: cold, then warm, both equal the uncached call."""
        system = _systems()[index]
        clear_die_cost_cache()
        with no_cache():
            naive = compute_re_cost(system)
        _assert_re_equal(compute_re_cost(system), naive)
        _assert_re_equal(compute_re_cost(system), naive)

    def test_engine_keeps_no_state(self):
        """Die costs are memoized only in ``repro.wafer.diecache``."""
        assert vars(CostEngine()) == {}

    def test_cache_info_and_clear(self, n5):
        """``cache_info`` and ``clear_caches`` face the shared die-cost
        memo, the one die-cost cache."""
        engine = CostEngine()
        engine.clear_caches()
        assert engine.cache_info()["die_cost_currsize"] == 0
        compute_re_cost(soc_reference(256.0, n5))
        compute_re_cost(soc_reference(256.0, n5))
        info = engine.cache_info()
        assert info == {
            "die_cost_hits": 1,
            "die_cost_misses": 1,
            "die_cost_currsize": 1,
            "die_cost_maxsize": die_cost_cache_info().maxsize,
        }
        engine.clear_caches()
        assert engine.cache_info()["die_cost_currsize"] == 0


class TestPackagingAffine:
    def test_linearization_matches_direct(self):
        for system in _systems():
            packager = system.package or system.integration
            areas = system.chip_areas
            affine = linearize_packaging(packager, areas)
            assert affine is not None
            for kgd in (0.0, 17.5, 1234.0):
                direct = packager.packaging_cost(areas, kgd)
                fitted = affine.packaging_cost(kgd)
                assert fitted.raw_package == direct.raw_package
                assert fitted.package_defects == direct.package_defects
                assert fitted.wasted_kgd == direct.wasted_kgd


class TestFastMonteCarlo:
    @pytest.mark.parametrize("index", range(6))
    def test_fast_matches_naive_oracle(self, index):
        system = _systems()[index]
        fast = monte_carlo_cost(system, draws=40, sigma=0.2, seed=11)
        naive = monte_carlo_cost_naive(system, draws=40, sigma=0.2, seed=11)
        assert fast.samples == naive.samples

    def test_auto_dispatch_matches_naive(self, n5):
        """The one front door (default arguments) samples exactly what
        the object-rebuilding oracle samples."""
        system = soc_reference(500.0, n5)
        auto = monte_carlo_cost(system, draws=30, seed=5)
        naive = monte_carlo_cost_naive(system, draws=30, seed=5)
        assert auto.samples == naive.samples

    def test_sample_re_costs_plan_reuse(self, n5):
        system = partition_monolith(640.0, n5, 2, mcm())
        assert sample_re_costs(system, draws=10, seed=2) == list(
            monte_carlo_cost_naive(system, draws=10, seed=2).samples
        )

    def test_no_stale_hits_across_draws(self, n5):
        """Monte-Carlo node churn must not corrupt nominal pricing."""
        system = partition_monolith(700.0, n5, 2, mcm())
        nominal_before = compute_re_cost(system).total
        monte_carlo_cost(system, draws=50, sigma=0.3, seed=9)
        assert compute_re_cost(system).total == nominal_before

    def test_fast_method_rejects_metric(self, n5):
        """Both samplers price the RE total only: a custom ``metric`` is
        not a parameter of either."""
        system = soc_reference(300.0, n5)
        for sampler in (monte_carlo_cost, monte_carlo_cost_naive):
            with pytest.raises(TypeError):
                sampler(system, draws=5, metric=lambda s: 1.0)

    def test_invalid_method_and_draws(self, n5):
        """Non-positive draws are rejected on both paths, and the
        removed ``method`` selector is not a parameter any more."""
        system = soc_reference(300.0, n5)
        for sampler in (monte_carlo_cost, monte_carlo_cost_naive):
            with pytest.raises(InvalidParameterError):
                sampler(system, draws=0)
            with pytest.raises(TypeError):
                sampler(system, method="naive")


class TestFastPartitionSweep:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_partition_re_cost_matches_built_system(self, count, n7):
        """Every grid cell, chip details included, equals pricing the
        built partition."""
        areas = [750.0, 333.3, 97.5]
        for tech in (mcm(), info(), interposer_25d()):
            grid = CostEngine().partition_grid("g", areas, [count], n7, tech)
            for area in areas:
                built = compute_re_cost(
                    partition_monolith(area, n7, count, tech)
                )
                _assert_re_equal(grid.value(area, count), built)

    def test_soc_re_cost_matches_built_system(self, n5):
        built = compute_re_cost(soc_reference(420.0, n5))
        sweep = CostEngine().partition_sweep("s", 420.0, n5, [1], mcm())
        _assert_re_equal(sweep.points[0].value, built)

    def test_partition_re_cost_validation(self, n7):
        engine = CostEngine()
        with pytest.raises(InvalidParameterError):
            engine.partition_grid("g", [750.0], [0], n7, mcm())
        with pytest.raises(InvalidParameterError):
            engine.partition_grid("g", [300.0, -1.0], [2], n7, mcm())
        with pytest.raises(InvalidParameterError):
            engine.partition_sweep("s", 0.0, n7, [1], mcm())
        with pytest.raises(InvalidParameterError, match="cannot hold"):
            engine.partition_grid("g", [750.0], [2], n7, soc_package())

    def test_partition_sweep_rejects_nonpositive_counts(self, n5):
        """Counts < 1 must raise like partition_monolith, not silently
        price the SoC reference."""
        engine = CostEngine()
        with pytest.raises(InvalidParameterError):
            engine.partition_sweep("s", 500.0, n5, [0, 1, 2], mcm())
        with pytest.raises(InvalidParameterError):
            engine.partition_sweep("s", 500.0, n5, [-2], mcm())

    def test_partition_sweep_counts_and_soc_anchor(self, n5):
        sweep = CostEngine().partition_sweep("s", 800.0, n5, [1, 2, 3, 4], mcm())
        assert sweep.xs() == [1, 2, 3, 4]
        soc_total = compute_re_cost(soc_reference(800.0, n5)).total
        assert sweep.points[0].value.total == soc_total
        for point, count in zip(sweep.points[1:], [2, 3, 4]):
            built = compute_re_cost(partition_monolith(800.0, n5, count, mcm()))
            assert point.value.total == built.total

    def test_partition_grid_matches_built_systems(self, n7):
        engine = CostEngine()
        areas = [300.0, 500.0]
        counts = [1, 2, 4]
        grid = engine.partition_grid("g", areas, counts, n7, mcm())
        assert grid.rows == (300.0, 500.0)
        assert grid.cols == (1, 2, 4)
        for area in areas:
            for count in counts:
                built = compute_re_cost(partition_monolith(area, n7, count, mcm()))
                assert grid.value(area, count).total == built.total

    def test_grid_errors(self, n7):
        engine = CostEngine()
        with pytest.raises(InvalidParameterError):
            engine.partition_grid("g", [], [1], n7, mcm())
        grid = engine.partition_grid("g", [300.0], [2], n7, mcm())
        with pytest.raises(InvalidParameterError):
            grid.value(999.0, 2)


class TestCostDistribution:
    def test_statistics_match_manual_computation(self):
        samples = (5.0, 1.0, 3.0, 2.0, 4.0)
        dist = CostDistribution(samples=samples)
        assert dist.mean == pytest.approx(3.0)
        assert dist.std == pytest.approx((2.0) ** 0.5)
        assert dist.quantile(0.0) == 1.0
        assert dist.quantile(1.0) == 5.0
        assert dist.quantile(0.5) == 3.0

    def test_derived_statistics_are_memoized(self):
        dist = CostDistribution(samples=(3.0, 1.0, 2.0))
        dist.quantile(0.5)
        first = dist.__dict__["_sorted_samples"]
        dist.quantile(0.9)
        assert dist.__dict__["_sorted_samples"] is first
        assert dist.mean == dist.mean
        assert "mean" in dist.__dict__
        dist.std
        assert "std" in dist.__dict__

    def test_invalid_quantile(self):
        with pytest.raises(InvalidParameterError):
            CostDistribution(samples=(1.0,)).quantile(-0.1)


class TestBatchFrontends:
    def test_engine_sweep_matches_manual_loop(self, n5):
        """The ``repro sweep`` columns: an SoC column (count 1 with
        ``soc_for_one``) and a partition column per technology, each
        equal to building and pricing every area's system."""
        values = [200.0, 400.0, 600.0]
        engine = CostEngine()
        soc = engine.partition_grid(
            "SoC", values, [1], n5, mcm(), soc_for_one=True
        )
        split = engine.partition_grid("MCM", values, [3], n5, mcm())
        assert soc.rows == split.rows == tuple(values)
        for area in values:
            _assert_re_equal(
                soc.value(area, 1), compute_re_cost(soc_reference(area, n5))
            )
            _assert_re_equal(
                split.value(area, 3),
                compute_re_cost(partition_monolith(area, n5, 3, mcm())),
            )

    def test_system_tornado_matches_callback_tornado(self, n5):
        def build(parameter: str, scale: float) -> System:
            d2d = 0.10 * scale if parameter == "d2d" else 0.10
            density = scale if parameter == "defect_density" else 1.0
            node = n5.with_defect_density(n5.defect_density * density)
            return partition_monolith(800.0, node, 2, mcm(), d2d_fraction=d2d)

        def callback_tornado(parameters, step):
            """One naive ``compute_re_cost`` per (parameter, scale)."""
            rows = [
                tuple(
                    compute_re_cost(build(parameter, scale)).total
                    for scale in (1.0, 1.0 - step, 1.0 + step)
                )
                for parameter in parameters
            ]
            return sorted(
                zip(parameters, rows),
                key=lambda row: abs(row[1][2] - row[1][1]),
                reverse=True,
            )

        parameters = ["d2d", "defect_density"]
        fast = system_tornado(parameters, build, step=0.2)
        oracle = callback_tornado(parameters, 0.2)
        assert [r.parameter for r in fast] == [name for name, _ in oracle]
        for result, (_name, (base, low, high)) in zip(fast, oracle):
            assert result.base == base
            assert result.low == low
            assert result.high == high

    def test_system_tornado_validation(self, n5):
        build = lambda p, s: soc_reference(100.0, n5)  # noqa: E731
        with pytest.raises(InvalidParameterError):
            system_tornado([], build)
        with pytest.raises(InvalidParameterError):
            system_tornado(["x"], build, step=1.5)

class TestBenchSmoke:
    def test_perf_bench_smoke_mode(self):
        """The perf bench's quick smoke mode runs green end to end."""
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        bench = os.path.join(repo, "benchmarks", "bench_perf_engine.py")
        env = dict(os.environ)
        src = os.path.join(repo, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, bench, "--smoke"],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "engine perf bench (smoke)" in result.stdout
