"""Uneven partitioning and Pareto exploration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.module import Module
from repro.errors import ConfigError, InvalidParameterError
from repro.explore.pareto import pareto_frontier
from repro.explore.uneven import balance_modules, partition_modules
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.scenario import ParetoStudy, ScenarioRunner
from repro.search.oracle import oracle_candidate, run_search_oracle
from repro.search.space import DesignSpace


class TestBalanceModules:
    def test_perfect_split(self):
        assignment = balance_modules([100.0, 100.0], 2)
        assert assignment.bin_areas == (100.0, 100.0)
        assert assignment.imbalance == pytest.approx(1.0)

    def test_all_modules_assigned_once(self):
        assignment = balance_modules([50.0, 40.0, 30.0, 20.0, 10.0], 3)
        assigned = sorted(i for b in assignment.bins for i in b)
        assert assigned == [0, 1, 2, 3, 4]

    def test_k_equals_modules(self):
        assignment = balance_modules([10.0, 20.0, 30.0], 3)
        assert len(assignment.bins) == 3
        assert sorted(assignment.bin_areas) == [10.0, 20.0, 30.0]

    def test_lpt_quality_on_classic_case(self):
        # 3,3,2,2,2 into 2 bins: optimal max is 6.
        assignment = balance_modules([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert assignment.max_area == pytest.approx(6.0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            balance_modules([], 2)
        with pytest.raises(InvalidParameterError):
            balance_modules([1.0], 0)
        with pytest.raises(InvalidParameterError):
            balance_modules([1.0], 2)
        with pytest.raises(InvalidParameterError):
            balance_modules([0.0], 1)

    @settings(max_examples=50, deadline=None)
    @given(
        areas=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=12
        ),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_list_scheduling_bound(self, areas, k):
        """Graham's list-scheduling bound holds for LPT:
        max bin <= mean + (1 - 1/k) * largest module."""
        if k > len(areas):
            return
        assignment = balance_modules(areas, k)
        bound = sum(areas) / k + (1.0 - 1.0 / k) * max(areas)
        assert assignment.max_area <= bound + 1e-9
        assert sum(assignment.bin_areas) == pytest.approx(sum(areas))


class TestPartitionModules:
    def test_builds_system_with_k_chips(self, n5):
        modules = [Module(f"m{i}", 100.0 + i * 20, n5) for i in range(6)]
        system = partition_modules("u", modules, n5, 3, mcm())
        assert len(system.chips) == 3
        assert system.module_area == pytest.approx(
            sum(m.area for m in modules)
        )

    def test_chiplets_balanced(self, n5):
        modules = [Module(f"m{i}", 100.0, n5) for i in range(4)]
        system = partition_modules("u", modules, n5, 2, mcm())
        areas = [chip.module_area for chip in system.chips]
        assert areas[0] == pytest.approx(areas[1])


class TestParetoFrontier:
    def test_single_objective_is_min(self):
        items = [3.0, 1.0, 2.0]
        frontier = pareto_frontier(items, [lambda x: x])
        assert frontier == [1.0]

    def test_non_dominated_kept(self):
        # (cost, footprint): (1, 3) and (3, 1) trade off; (4, 4) dominated.
        items = [(1.0, 3.0), (3.0, 1.0), (4.0, 4.0)]
        frontier = pareto_frontier(
            items, [lambda p: p[0], lambda p: p[1]]
        )
        assert (1.0, 3.0) in frontier
        assert (3.0, 1.0) in frontier
        assert (4.0, 4.0) not in frontier

    def test_duplicates_survive(self):
        items = [(1.0, 1.0), (1.0, 1.0)]
        frontier = pareto_frontier(items, [lambda p: p[0], lambda p: p[1]])
        assert len(frontier) == 2

    def test_no_objectives_rejected(self):
        with pytest.raises(InvalidParameterError):
            pareto_frontier([1], [])


_LABELS = {"soc": "SoC", "mcm": "MCM", "2.5d": "2.5D"}


def _pareto(technologies=("mcm", "2.5d"), counts=(2, 3), quantity=5e6):
    """Run a ``pareto`` study at 800 mm^2 on 5nm; returns its sink rows
    and the equivalent one-area, one-node space for the search oracle."""
    study = ParetoStudy(
        name="frontier",
        module_area=800.0,
        node="5nm",
        quantity=quantity,
        technologies=technologies,
        chiplet_counts=counts,
    )
    space = DesignSpace(
        module_areas=(800.0,),
        nodes=("5nm",),
        technologies=technologies,
        chiplet_counts=counts,
        quantity=quantity,
        objectives=("total", "footprint"),
    )
    return ScenarioRunner().run_study(study).rows, space


def _oracle_by_label(space):
    """Every oracle-priced candidate of ``space``, keyed by the study's
    design label."""
    candidates = (
        oracle_candidate(space, index) for index in range(space.n_candidates)
    )
    return {
        f"{_LABELS[candidate.scheme]} x{candidate.chiplets}": candidate
        for candidate in candidates
    }


class TestDesignSpace:
    """The ``pareto`` study: the SoC plus every (technology, count)
    split, priced on the search evaluator."""

    def test_contains_soc_and_all_combinations(self):
        rows, _space = _pareto()
        assert sorted(row["design"] for row in rows) == sorted(
            ["SoC x1", "MCM x2", "MCM x3", "2.5D x2", "2.5D x3"]
        )

    def test_rows_match_oracle_in_total_order(self):
        rows, space = _pareto()
        oracle = _oracle_by_label(space)
        for row in rows:
            expected = oracle[row["design"]]
            assert row["total/unit"] == expected.total
            assert row["RE/unit"] == expected.re
            assert row["footprint mm^2"] == expected.footprint
        totals = [row["total/unit"] for row in rows]
        assert totals == sorted(totals)

    def test_frontier_is_subset(self):
        rows, space = _pareto(technologies=("mcm",))
        oracle = _oracle_by_label(space)
        starred = {
            oracle[row["design"]].index for row in rows if row["frontier"] == "*"
        }
        assert starred
        assert starred == set(run_search_oracle(space).frontier_indices())

    def test_soc_on_footprint_frontier(self):
        """The single-die package always has the smallest footprint."""
        rows, _space = _pareto(technologies=("mcm",), counts=(2,))
        soc_rows = [row for row in rows if row["design"] == "SoC x1"]
        assert len(soc_rows) == 1
        assert soc_rows[0]["frontier"] == "*"

    def test_invalid_quantity(self):
        for quantity in (0.0, -1.0):
            with pytest.raises(ConfigError, match="quantity must be > 0"):
                _pareto(quantity=quantity)


class TestMirroredChiplets:
    def test_mirror_doubles_chip_designs(self):
        from repro.reuse.scms import SCMSConfig, build_scms

        symmetric = build_scms(SCMSConfig(symmetrical=True), mcm())
        mirrored = build_scms(SCMSConfig(symmetrical=False), mcm())
        sym_chips = {
            id(chip)
            for system in symmetric.chiplet.systems
            for chip, _n in system.unique_chips()
        }
        mir_chips = {
            id(chip)
            for system in mirrored.chiplet.systems
            for chip, _n in system.unique_chips()
        }
        assert len(sym_chips) == 1
        assert len(mir_chips) == 2

    def test_mirror_raises_nre_not_re(self):
        from repro.core.re_cost import compute_re_cost
        from repro.reuse.scms import SCMSConfig, build_scms

        symmetric = build_scms(SCMSConfig(symmetrical=True), mcm())
        mirrored = build_scms(SCMSConfig(symmetrical=False), mcm())
        # Same recurring cost (identical silicon)...
        for sym, mir in zip(
            symmetric.chiplet.systems, mirrored.chiplet.systems
        ):
            assert compute_re_cost(mir).total == pytest.approx(
                compute_re_cost(sym).total
            )
        # ...but more NRE for the 4X grade (two chip designs).
        sym_nre = symmetric.chiplet.total_nre().chips
        mir_nre = mirrored.chiplet.total_nre().chips
        assert mir_nre == pytest.approx(2.0 * sym_nre)
