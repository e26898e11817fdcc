"""Partitioning and sweep results."""

import pytest

from repro.core.re_cost import compute_re_cost
from repro.errors import InvalidParameterError
from repro.explore.partition import partition_monolith, soc_reference
from repro.engine.costengine import CostEngine
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node


class TestPartition:
    def test_module_area_conserved(self, n5, mcm_tech):
        system = partition_monolith(800.0, n5, 3, mcm_tech)
        assert system.module_area == pytest.approx(800.0)

    def test_silicon_grows_by_d2d(self, n5, mcm_tech):
        system = partition_monolith(800.0, n5, 2, mcm_tech, d2d_fraction=0.10)
        assert system.silicon_area == pytest.approx(800.0 / 0.9)

    def test_chiplets_are_distinct_designs(self, n5, mcm_tech):
        """Fig. 4 assumes no reuse: every chiplet is its own design."""
        system = partition_monolith(800.0, n5, 4, mcm_tech)
        assert len(system.unique_chips()) == 4

    def test_one_chiplet_partition(self, n5, mcm_tech):
        system = partition_monolith(800.0, n5, 1, mcm_tech)
        assert len(system.chips) == 1
        assert system.chips[0].is_chiplet  # still pays D2D

    def test_zero_d2d_single_chiplet_matches_soc_die(self, n5, mcm_tech):
        """k=1 with no D2D is the SoC die in an MCM package."""
        system = partition_monolith(800.0, n5, 1, mcm_tech, d2d_fraction=0.0)
        reference = soc_reference(800.0, n5)
        assert system.chips[0].area == pytest.approx(
            reference.chips[0].area
        )
        re_multi = compute_re_cost(system)
        re_soc = compute_re_cost(reference)
        assert re_multi.chips_total == pytest.approx(re_soc.chips_total)

    def test_invalid_arguments(self, n5, mcm_tech):
        with pytest.raises(InvalidParameterError):
            partition_monolith(800.0, n5, 0, mcm_tech)
        with pytest.raises(InvalidParameterError):
            partition_monolith(0.0, n5, 2, mcm_tech)

    def test_finer_partition_better_die_yield_cost(self, n5, mcm_tech):
        """Die-defect cost strictly decreases with granularity."""
        defects = [
            compute_re_cost(
                partition_monolith(800.0, n5, count, mcm_tech)
            ).chip_defects
            for count in (2, 3, 5, 8)
        ]
        assert defects == sorted(defects, reverse=True)


class TestSweep:
    def test_empty_sweep_rejected(self, n5):
        engine = CostEngine()
        with pytest.raises(InvalidParameterError):
            engine.partition_sweep("x", 400.0, n5, [], mcm())
        with pytest.raises(InvalidParameterError):
            engine.partition_grid("x", [400.0], [], n5, mcm())
