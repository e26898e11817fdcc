"""The `search` study kind: spec round-trip, runner wiring (scoped
registries, sink rows, rendered table) and frontier identity against
the `pareto_frontier` oracle on a seeded grid."""

import json
import os

import pytest

from repro.config import ConfigRegistries
from repro.errors import ConfigError
from repro.scenario import (
    ScenarioRunner,
    ScenarioSpec,
    SearchStudy,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    study_from_dict,
    study_to_dict,
)
from repro.search import run_search_oracle

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


def _example(name: str) -> dict:
    with open(os.path.join(EXAMPLES, name)) as handle:
        return json.load(handle)


def _study(**overrides) -> SearchStudy:
    base = dict(
        name="ds",
        # Single module area on purpose: with an area axis the smallest
        # area dominates both (re, footprint), collapsing the frontier
        # to one point.  This shape yields a 3-member frontier.
        module_areas=(600.0,),
        nodes=("5nm", "7nm", "14nm"),
        technologies=("mcm", "info", "2.5d"),
        chiplet_counts=(2, 3, 4, 5),
        d2d_fractions=(0.10,),
        quantity=500_000.0,
        objectives=("re", "footprint"),
        top_k=4,
    )
    base.update(overrides)
    return SearchStudy(**base)


def _spec(study: SearchStudy) -> ScenarioSpec:
    return ScenarioSpec(name="search-scenario", studies=(study,))


class TestSpec:
    def test_study_dict_round_trip(self):
        study = _study(test_cost={"tester_cost_per_hour": 400.0},
                       objectives=("re", "test_cost"),
                       yield_model="murphy", wafer_geometry="450mm")
        payload = json.loads(json.dumps(study_to_dict(study)))
        assert payload["kind"] == "search"
        assert study_from_dict(payload) == study

    def test_scenario_round_trip(self):
        spec = _spec(_study())
        assert scenario_from_dict(scenario_to_dict(spec)) == spec

    def test_unknown_keys_rejected(self):
        payload = study_to_dict(_study())
        payload["oops"] = 1
        with pytest.raises(ConfigError):
            study_from_dict(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            study_from_dict([1, 2, 3])

    def test_invalid_space_names_the_study(self):
        with pytest.raises(ConfigError) as excinfo:
            _study(name="bad-space", objectives=("re", "warp"))
        message = str(excinfo.value)
        assert "search study 'bad-space'" in message
        assert "unknown objective 'warp'" in message

    def test_study_exposes_its_design_space(self):
        space = _study().space()
        assert space.n_candidates == 3 + 3 * 4 * 3
        assert space.objectives == ("re", "footprint")


class TestRunner:
    def test_frontier_matches_pareto_oracle(self):
        study = _study()
        result = run_scenario(_spec(study)).result("ds")
        oracle = run_search_oracle(study.space())
        fast = result.data["result"]
        assert fast.frontier_indices() == oracle.frontier_indices()
        assert fast.frontier == oracle.frontier
        assert fast.top == oracle.top
        # The seeded grid has a real (non-degenerate) frontier.
        assert len(fast.frontier) >= 3
        labels = {candidate.label for candidate in fast.frontier}
        assert any(label.startswith("soc") for label in labels)
        assert any(not label.startswith("soc") for label in labels)

    def test_rendered_table(self):
        result = run_scenario(_spec(_study())).result("ds")
        text = result.text
        assert "Design-space search" in text
        assert "objectives re/footprint" in text
        assert "frontier" in text and "top" in text

    def test_sink_rows_schema(self):
        study = _study()
        result = run_scenario(_spec(study)).result("ds")
        rows = result.rows
        fast = result.data["result"]
        assert len(rows) == len(fast.frontier) + len(fast.top)
        sets = {row["set"] for row in rows}
        assert sets == {"frontier", "top"}
        for row in rows:
            assert {"rank", "index", "scheme", "node", "chiplets",
                    "module_area", "re", "nre", "total", "silicon_area",
                    "footprint"} <= set(row)
        json.dumps(rows)

    def test_scoped_node_resolves(self):
        spec = ScenarioSpec(
            name="scoped",
            nodes={"7hp-scoped": {"base": "7nm", "defect_density": 0.12}},
            studies=(_study(nodes=("7hp-scoped",), chiplet_counts=(2, 3)),),
        )
        result = run_scenario(spec).result("ds")
        fast = result.data["result"]
        assert fast.n_candidates == 1 + 3 * 2
        assert all(c.node == "7hp-scoped" for c in fast.frontier)

    def test_scoped_technology_resolves(self):
        spec = ScenarioSpec(
            name="scoped-tech",
            technologies={"hv": {"base": "2.5d",
                                 "params": {"chip_attach_yield": 0.95}}},
            studies=(_study(technologies=("hv",), chiplet_counts=(2, 3)),),
        )
        fast = run_scenario(spec).result("ds").data["result"]
        schemes = {c.scheme for c in fast.frontier} | {
            c.scheme for c in fast.top
        }
        assert schemes <= {"soc", "hv"}
        assert "hv" in {c.scheme for c in fast.top}

    def test_yield_model_names_reprice_search(self):
        base = run_scenario(_spec(_study())).result("ds")
        priced = run_scenario(
            _spec(_study(yield_model="murphy", wafer_geometry="450mm"))
        ).result("ds")
        assert base.rows != priced.rows
        oracle = run_search_oracle(
            _study(yield_model="murphy", wafer_geometry="450mm").space(),
            die_cost_fn=ConfigRegistries().die_cost_fn(
                "murphy", "450mm", context="test"
            ),
        )
        assert priced.data["result"].frontier == oracle.frontier


def test_search_study_has_no_precision_tier():
    """Search evaluates on the exact tier only: a search study that
    still asks for a tier fails as an unknown key."""
    document = _example("scenario_search.json")
    search = next(s for s in document["studies"] if s["kind"] == "search")
    search["precision"] = "fast"
    with pytest.raises(ConfigError, match=r"search.*unknown keys \['precision'\]"):
        scenario_from_dict(document)


def test_search_study_has_no_batch_size():
    """Block size is a constant of the evaluator: a search study that
    still sends ``batch_size`` fails as an unknown key."""
    document = _example("scenario_search.json")
    search = next(s for s in document["studies"] if s["kind"] == "search")
    search["batch_size"] = 4096
    with pytest.raises(ConfigError, match=r"search.*unknown keys \['batch_size'\]"):
        scenario_from_dict(document)
