"""Service schema codecs: strict parsing, exact round-trips, canonical
keys, and the shared CLI/HTTP cost table."""

import json

import pytest

from repro.errors import ConfigError, InvalidParameterError
from repro.service.schemas import (
    CostRequest,
    CostResult,
    ScenarioRequest,
    ScenarioRunResult,
    StudySummary,
    cost_table,
)


class TestCostRequest:
    def test_defaults_mirror_cli(self):
        request = CostRequest.from_dict({"area": 500})
        assert request == CostRequest(
            area=500.0,
            node="7nm",
            integration="soc",
            chiplets=2,
            d2d_fraction=0.10,
            quantity=500_000.0,
            yield_model="",
            wafer_geometry="",
        )

    def test_round_trip_exact(self):
        request = CostRequest(
            area=123.456789,
            node="5nm",
            integration="2.5d",
            chiplets=4,
            d2d_fraction=0.07,
            quantity=2e6,
            yield_model="poisson",
        )
        through_json = json.loads(json.dumps(request.to_dict()))
        assert CostRequest.from_dict(through_json) == request

    def test_missing_area(self):
        with pytest.raises(InvalidParameterError, match="area"):
            CostRequest.from_dict({"node": "7nm"})

    def test_unknown_field(self):
        with pytest.raises(InvalidParameterError, match="unknown field"):
            CostRequest.from_dict({"area": 1, "aera": 2})

    def test_type_errors_are_named(self):
        with pytest.raises(InvalidParameterError, match="chiplets"):
            CostRequest.from_dict({"area": 1, "chiplets": "four"})
        with pytest.raises(InvalidParameterError, match="node"):
            CostRequest.from_dict({"area": 1, "node": 7})
        with pytest.raises(InvalidParameterError, match="area"):
            CostRequest.from_dict({"area": True})

    def test_non_mapping(self):
        with pytest.raises(InvalidParameterError, match="JSON object"):
            CostRequest.from_dict([1, 2])

    def test_canonical_ignores_field_order(self):
        forward = CostRequest.from_dict({"area": 400, "node": "5nm"})
        backward = CostRequest.from_dict({"node": "5nm", "area": 400})
        assert forward.canonical() == backward.canonical()

    def test_canonical_distinguishes_values(self):
        base = CostRequest(area=400.0)
        assert base.canonical() != CostRequest(area=400.5).canonical()
        assert (
            base.canonical()
            != CostRequest(area=400.0, yield_model="poisson").canonical()
        )

    def test_overrides_and_key(self):
        from repro.explore.costquery import resolve_die_cost_fn

        plain = CostRequest(area=100.0)
        assert resolve_die_cost_fn(plain, "cost") is None
        named = CostRequest(area=100.0, yield_model="poisson",
                            wafer_geometry="450mm")
        assert resolve_die_cost_fn(named, "cost") is not None


def test_service_reexports_the_cost_query():
    """The service's cost names are the campaign-layer objects the CLI
    runs, not copies: wrapping ``schemas.CostRequest.from_dict`` or
    ``state.evaluate_cost`` wraps what both interfaces call."""
    from repro import service
    from repro.explore import costquery
    from repro.service import schemas, state

    assert schemas.CostRequest is costquery.CostRequest
    assert schemas.CostResult is costquery.CostResult
    assert schemas.cost_table is costquery.cost_table
    assert state.evaluate_cost is costquery.evaluate_cost
    assert service.evaluate_cost is costquery.evaluate_cost


class TestCostResult:
    RESULT = CostResult(
        system="soc-800",
        re={"raw_chips": 1.0, "chip_defects": 0.5, "raw_package": 0.25,
            "package_defects": 0.1, "wasted_kgd": 0.0},
        re_total=1.85,
        nre={"modules": 0.2, "chips": 0.3, "packages": 0.1, "d2d": 0.0},
        nre_total=0.6,
        total=2.45,
    )

    def test_round_trip_exact(self):
        through_json = json.loads(json.dumps(self.RESULT.to_dict()))
        assert CostResult.from_dict(through_json) == self.RESULT

    def test_missing_field(self):
        payload = self.RESULT.to_dict()
        del payload["total"]
        with pytest.raises(InvalidParameterError, match="total"):
            CostResult.from_dict(payload)

    def test_cost_table_shape(self):
        table = cost_table(self.RESULT)
        assert table.title == "Cost of soc-800"
        records = table.records()
        components = [record["component"] for record in records]
        assert components[0] == "RE raw_chips"
        assert "RE total" in components
        assert components[-1] == "total per unit"
        assert records[-1]["USD per unit"] == 2.45

    def test_table_preserves_breakdown_order(self):
        table = cost_table(self.RESULT)
        components = [record["component"] for record in table.records()]
        assert components == (
            [f"RE {name}" for name in self.RESULT.re]
            + ["RE total"]
            + [f"NRE {name} (amortized)" for name in self.RESULT.nre]
            + ["total per unit"]
        )


SCENARIO_DOC = {
    "name": "schema-test",
    "description": "one tiny sweep",
    "studies": [
        {
            "kind": "partition_sweep",
            "name": "sweep",
            "module_area": 200,
            "node": "7nm",
            "chiplet_counts": [1, 2],
            "technology": "mcm",
        }
    ],
}


class TestScenarioRequest:
    def test_parses_document(self):
        request = ScenarioRequest.from_dict({"scenario": SCENARIO_DOC})
        assert request.spec.name == "schema-test"
        assert request.studies == ()

    def test_round_trip(self):
        request = ScenarioRequest.from_dict(
            {"scenario": SCENARIO_DOC, "studies": ["sweep"]}
        )
        again = ScenarioRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert again.spec == request.spec
        assert again.studies == ("sweep",)
        assert again.canonical() == request.canonical()

    def test_requires_document(self):
        with pytest.raises(InvalidParameterError, match="scenario"):
            ScenarioRequest.from_dict({})

    def test_bad_document_fails_at_the_boundary(self):
        with pytest.raises(Exception):
            ScenarioRequest.from_dict(
                {"scenario": {"name": "x", "studies": [{"kind": "nope"}]}}
            )

    def test_studies_filter(self):
        request = ScenarioRequest.from_dict(
            {"scenario": SCENARIO_DOC, "studies": ["sweep"]}
        )
        assert [s.name for s in request.selected_spec().studies] == ["sweep"]

    def test_unknown_study_rejected(self):
        request = ScenarioRequest.from_dict(
            {"scenario": SCENARIO_DOC, "studies": ["missing"]}
        )
        with pytest.raises(InvalidParameterError, match="missing"):
            request.selected_spec()

    def test_studies_must_be_names(self):
        with pytest.raises(InvalidParameterError, match="studies"):
            ScenarioRequest.from_dict(
                {"scenario": SCENARIO_DOC, "studies": "sweep"}
            )


class TestScenarioRunResult:
    RESULT = ScenarioRunResult(
        scenario="s",
        description="d",
        studies=(
            StudySummary(name="a", kind="partition_sweep", text="table-a",
                         rows=({"chiplets": 1, "RE total": 2.5},)),
            StudySummary(name="b", kind="figure", text="fig"),
        ),
    )

    def test_round_trip(self):
        through_json = json.loads(json.dumps(self.RESULT.to_dict()))
        assert ScenarioRunResult.from_dict(through_json) == self.RESULT

    def test_render_matches_runner_format(self):
        assert self.RESULT.render() == (
            "=== a ===\ntable-a\n\n=== b ===\nfig"
        )


class TestSearchSchemas:
    """A design-space search travels as a scenario request with one
    ``search`` study: the scenario codec is its one JSON spelling."""

    STUDY = {
        "kind": "search",
        "name": "space",
        "module_areas": [200, 400],
        "nodes": ["7nm"],
        "technologies": ["mcm"],
        "chiplet_counts": [2],
        "d2d_fractions": [0.1],
        "yield_model": "poisson",
    }

    def _payload(self, **study):
        return {"scenario": {"name": "search",
                             "studies": [dict(self.STUDY, **study)]}}

    def test_round_trip(self):
        request = ScenarioRequest.from_dict(self._payload())
        again = ScenarioRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert again.spec == request.spec
        assert again.canonical() == request.canonical()
        assert again.spec.studies[0].yield_model == "poisson"

    def test_precision_is_an_unknown_field(self):
        # Search evaluates on the exact tier only.
        with pytest.raises(ConfigError, match="precision"):
            ScenarioRequest.from_dict(self._payload(precision="fast"))

    def test_requires_space(self):
        payload = self._payload()
        del payload["scenario"]["studies"][0]["module_areas"]
        with pytest.raises(ConfigError, match="module_areas"):
            ScenarioRequest.from_dict(payload)

    def test_result_round_trip(self):
        result = ScenarioRunResult(
            scenario="search",
            studies=(
                StudySummary(
                    name="space", kind="search", text="table",
                    rows=({"set": "frontier", "rank": 0, "total": 1.25},),
                ),
            ),
        )
        through_json = json.loads(json.dumps(result.to_dict()))
        assert ScenarioRunResult.from_dict(through_json) == result
