"""The design-space search (`repro.search`): candidate enumeration,
spec validation, and — the load-bearing guarantee —
bit-parity of the vectorized `run_search` against the naive
one-System-per-candidate oracle, on every code path (die-cost override,
test cost, k objectives, no-SoC, no-numpy scalar fallback)."""

import json

import pytest

import repro.search.evaluate as evaluate_module
import repro.search.frontier as frontier_module
from repro.config import ConfigRegistries
from repro.errors import ConfigError
from repro.search import (
    DesignSpace,
    candidate_rows,
    oracle_candidate,
    run_search,
    run_search_oracle,
)


def _space(**overrides):
    base = dict(
        module_areas=(300.0, 600.0),
        nodes=("7nm", "14nm"),
        technologies=("mcm", "2.5d"),
        chiplet_counts=(2, 3),
        d2d_fractions=(0.10,),
        quantity=500_000.0,
        top_k=5,
    )
    base.update(overrides)
    return DesignSpace(**base)


class TestDesignSpaceValidation:
    @pytest.mark.parametrize("overrides, fragment", [
        (dict(module_areas=()), "module_areas"),
        (dict(module_areas=(300.0, -1.0)), "must be > 0"),
        (dict(nodes=()), "nodes"),
        (dict(technologies=(), include_soc=False), "empty"),
        (dict(chiplet_counts=()), "chiplet_counts"),
        (dict(chiplet_counts=(2, 0)), ">= 1"),
        (dict(chiplet_counts=(2.5,)), ">= 1"),
        (dict(d2d_fractions=()), "d2d_fractions"),
        (dict(d2d_fractions=(1.0,)), "[0, 1)"),
        (dict(quantity=0.0), "quantity"),
        (dict(objectives=()), "objectives"),
        (dict(objectives=("total", "total")), "duplicate"),
        (dict(objectives=("total", "test_cost")), "test_cost"),
        (dict(top_k=-1), "top_k"),
    ])
    def test_rejected(self, overrides, fragment):
        with pytest.raises(ConfigError, match="design space"):
            _space(**overrides)
        with pytest.raises(ConfigError) as excinfo:
            _space(**overrides)
        assert fragment in str(excinfo.value).replace("'", "")

    def test_unknown_objective_lists_available(self):
        with pytest.raises(ConfigError) as excinfo:
            _space(objectives=("total", "speed"))
        message = str(excinfo.value)
        assert "unknown objective 'speed'" in message
        assert "footprint" in message and "silicon_area" in message

    def test_unknown_test_cost_parameter_lists_available(self):
        with pytest.raises(ConfigError) as excinfo:
            _space(test_cost={"laser_power": 9000.0})
        message = str(excinfo.value)
        assert "laser_power" in message
        assert "tester_cost_per_hour" in message

    def test_bad_test_cost_value(self):
        with pytest.raises(ConfigError, match="test_cost"):
            _space(test_cost={"tester_cost_per_hour": -1.0})

    def test_soc_only_space_is_legal(self):
        space = _space(technologies=(), chiplet_counts=())
        assert space.n_candidates == space.n_soc_candidates == 4


class TestCandidateEnumeration:
    def test_counts(self):
        space = _space()
        # 2 nodes x 2 areas SoC + 2 techs x 2 counts x 1 frac x 2 x 2
        assert space.n_soc_candidates == 4
        assert space.n_candidates == 4 + 16

    def test_axes_round_trips_group_enumeration(self):
        space = _space()
        index = 0
        for group in space.groups():
            assert group.base_index == index
            for area in space.module_areas:
                axes = space.axes(index)
                assert axes.index == index
                assert axes.scheme == group.scheme
                assert axes.technology == group.technology
                assert axes.chiplets == group.chiplets
                assert axes.d2d_fraction == group.d2d_fraction
                assert axes.node == group.node
                assert axes.module_area == area
                index += 1
        assert index == space.n_candidates

    def test_no_soc_enumeration_starts_at_partitions(self):
        space = _space(include_soc=False)
        assert space.n_soc_candidates == 0
        assert space.axes(0).scheme == "mcm"

    @pytest.mark.parametrize("index", [-1, 20])
    def test_out_of_range_index(self, index):
        with pytest.raises(ConfigError, match="out of range"):
            _space().axes(index)

    def test_metrics_include_test_cost_only_with_model(self):
        assert "test_cost" not in _space().metrics
        assert "test_cost" in _space(test_cost={}).metrics


def _assert_same_result(fast, slow):
    assert fast.n_candidates == slow.n_candidates
    assert fast.objectives == slow.objectives
    assert fast.frontier == slow.frontier  # bit-identical metric floats
    assert fast.top == slow.top


class TestParityWithOracle:
    """run_search must be bit-identical to the one-System-per-candidate
    oracle — same floats, set-identical frontier, same top-k."""

    def test_default_space(self):
        space = _space()
        _assert_same_result(run_search(space), run_search_oracle(space))

    def test_die_cost_override(self):
        space = _space()
        override = ConfigRegistries().die_cost_fn(
            "murphy", "450mm", context="test"
        )
        _assert_same_result(
            run_search(space, die_cost_fn=override),
            run_search_oracle(space, die_cost_fn=override),
        )

    def test_with_test_cost_objective(self):
        space = _space(test_cost={"tester_cost_per_hour": 500.0},
                       objectives=("test_cost", "total"))
        fast = run_search(space)
        _assert_same_result(fast, run_search_oracle(space))
        assert all(c.test_cost is not None for c in fast.frontier)

    def test_three_objectives(self):
        space = _space(objectives=("re", "nre", "footprint"))
        _assert_same_result(run_search(space), run_search_oracle(space))

    def test_without_soc(self):
        space = _space(include_soc=False)
        _assert_same_result(run_search(space), run_search_oracle(space))

    def test_batch_size_does_not_change_results(self, monkeypatch):
        space = _space(module_areas=tuple(100.0 + 50.0 * i for i in range(9)))
        reference = run_search(space)
        for batch_size in (1, 3, 7):
            monkeypatch.setattr(evaluate_module, "BATCH_SIZE", batch_size)
            _assert_same_result(run_search(space), reference)

    @pytest.mark.skipif(frontier_module._np is None, reason="needs numpy")
    def test_scalar_fallback_matches_numpy(self, request):
        space = _space()
        vectorized = run_search(space)
        request.getfixturevalue("no_numpy")
        assert evaluate_module._np is None
        _assert_same_result(run_search(space), vectorized)

    def test_unknown_node_names_search_context(self):
        with pytest.raises(ConfigError, match="my search"):
            run_search(_space(nodes=("7nm", "nope")), context="my search")

    def test_single_candidate_spot_check(self):
        space = _space()
        result = run_search(space)
        probe = result.frontier[0]
        assert oracle_candidate(space, probe.index) == probe


class TestSearchResult:
    def test_frontier_in_index_order_and_non_dominated(self):
        result = run_search(_space())
        indices = result.frontier_indices()
        assert list(indices) == sorted(indices)
        vectors = [c.objective_vector(result.objectives)
                   for c in result.frontier]
        for mine in vectors:
            assert not any(
                all(x <= y for x, y in zip(other, mine))
                and any(x < y for x, y in zip(other, mine))
                for other in vectors
            )

    def test_top_is_cost_sorted_and_bounded(self):
        space = _space(top_k=3)
        result = run_search(space)
        totals = [candidate.total for candidate in result.top]
        assert len(result.top) == 3
        assert totals == sorted(totals)
        oracle = run_search_oracle(space)
        assert result.top == oracle.top

    def test_top_k_zero_disables_top(self):
        assert run_search(_space(top_k=0)).top == ()

    def test_labels(self):
        result = run_search(_space())
        labels = {candidate.label for candidate in result.frontier}
        assert any(label.startswith("soc x1 ") for label in labels)
        assert all("@" in label for label in labels)

    def test_objective_on_missing_metric(self):
        candidate = run_search(_space()).frontier[0]
        assert candidate.test_cost is None
        with pytest.raises(ValueError, match="test_cost"):
            candidate.objective("test_cost")


class TestCandidateRows:
    def test_schema_and_set_tags(self):
        result = run_search(_space(top_k=4))
        rows = candidate_rows(result)
        assert len(rows) == len(result.frontier) + 4
        expected = {"set", "rank", "index", "scheme", "node", "chiplets",
                    "d2d_fraction", "module_area", "re", "nre", "total",
                    "silicon_area", "footprint"}
        for row in rows:
            assert set(row) == expected
        frontier_rows = [row for row in rows if row["set"] == "frontier"]
        top_rows = [row for row in rows if row["set"] == "top"]
        assert [row["rank"] for row in frontier_rows] == list(
            range(len(result.frontier))
        )
        assert [row["index"] for row in top_rows] == [
            candidate.index for candidate in result.top
        ]
        json.dumps(rows)  # sink rows must be JSON-serializable

    def test_test_cost_column_present_when_enabled(self):
        result = run_search(_space(test_cost={}))
        assert all(
            "test_cost" in row for row in candidate_rows(result)
        )
