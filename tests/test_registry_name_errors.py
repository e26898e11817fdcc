"""Registry-name resolution across every study kind: unknown
``yield_model`` / ``wafer_geometry`` names raise a named ConfigError
listing the available entries, and known names actually reprice."""

import pytest

from repro.errors import ConfigError
from repro.explore import montecarlo
from repro.scenario import ScenarioRunner, scenario_from_dict


def _doc(study: dict) -> dict:
    return {
        "scenario": "errors",
        "yield_models": {"p97": {"model": "poisson", "gross_factor": 0.97}},
        "wafer_geometries": {"prod": {"base": "300mm", "edge_exclusion": 3.0}},
        "studies": [study],
    }


SYSTEMS_DOCUMENT = {
    "modules": {"m0": {"name": "core", "area": 150.0, "node": "7nm"}},
    "chips": {
        "c0": {"name": "ccd", "modules": ["m0"], "node": "7nm",
               "d2d_fraction": 0.1}
    },
    "packages": {},
    "systems": [
        {"name": "dual", "chips": ["c0", "c0"], "integration": "mcm",
         "quantity": 500000.0}
    ],
}


def _study(kind: str, **overrides) -> dict:
    base = {
        "systems": {"kind": "systems", "name": "sys",
                    "document": SYSTEMS_DOCUMENT},
        "montecarlo": {"kind": "montecarlo", "name": "mc",
                       "module_area": 300.0, "node": "7nm", "draws": 20},
        "pareto": {"kind": "pareto", "name": "pf", "module_area": 400.0,
                   "node": "7nm", "quantity": 1e6,
                   "chiplet_counts": [2, 3]},
        "sensitivity": {"kind": "sensitivity", "name": "sens",
                        "module_area": 300.0, "node": "7nm",
                        "parameters": ["defect_density"]},
        "reuse": {"kind": "reuse", "name": "ru", "scheme": "scms",
                  "params": {"module_area": 150.0, "node": "7nm",
                             "counts": [1, 2], "quantity": 5e5}},
        "partition_sweep": {"kind": "partition_sweep", "name": "ps",
                            "module_area": 400.0, "node": "7nm",
                            "technology": "mcm",
                            "chiplet_counts": [1, 2]},
        "partition_grid": {"kind": "partition_grid", "name": "pg",
                           "module_areas": [200.0, 400.0],
                           "chiplet_counts": [1, 2], "node": "7nm",
                           "technology": "mcm"},
        "search": {"kind": "search", "name": "ds",
                   "module_areas": [600.0], "nodes": ["7nm", "14nm"],
                   "technologies": ["mcm"], "chiplet_counts": [2, 3],
                   "quantity": 5e5, "top_k": 3},
    }[kind]
    return {**base, **overrides}


ALL_KINDS = ("systems", "montecarlo", "pareto", "sensitivity", "reuse",
             "partition_sweep", "partition_grid", "search")


class TestUnknownNames:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unknown_yield_model_lists_available(self, kind):
        spec = scenario_from_dict(_doc(_study(kind, yield_model="nope")))
        with pytest.raises(ConfigError) as excinfo:
            ScenarioRunner().run(spec)
        message = str(excinfo.value)
        assert spec.studies[0].name in message
        assert "unknown yield model 'nope'" in message
        # The error lists what *is* available: built-in families plus
        # the scenario-scoped entry.
        assert "negative-binomial" in message
        assert "p97" in message

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unknown_wafer_geometry_lists_available(self, kind):
        spec = scenario_from_dict(_doc(_study(kind, wafer_geometry="nope")))
        with pytest.raises(ConfigError) as excinfo:
            ScenarioRunner().run(spec)
        message = str(excinfo.value)
        assert spec.studies[0].name in message
        assert "unknown wafer geometry 'nope'" in message
        assert "300mm" in message
        assert "prod" in message


class TestKnownNamesReprice:
    def _run(self, study: dict):
        runner = ScenarioRunner()
        return runner.run(scenario_from_dict(_doc(study))).results[0]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_named_model_changes_pricing(self, kind):
        base = self._run(_study(kind))
        priced = self._run(_study(kind, yield_model="p97",
                                  wafer_geometry="prod"))
        assert base.rows != priced.rows

    def test_montecarlo_fast_with_named_model_matches_naive(self, monkeypatch):
        """The closed-form sampler accepts registry names and stays
        draw-for-draw identical to the naive sampler under them."""
        study = _study("montecarlo", yield_model="p97", wafer_geometry="prod")
        fast = self._run(study)
        monkeypatch.setattr(
            montecarlo, "monte_carlo_cost", montecarlo.monte_carlo_cost_naive
        )
        naive = self._run(study)
        assert fast.data.samples == naive.data.samples
        assert fast.rows == naive.rows

    def test_montecarlo_named_model_keeps_determinism(self):
        one = self._run(_study("montecarlo", yield_model="p97"))
        two = self._run(_study("montecarlo", yield_model="p97"))
        assert one.data.samples == two.data.samples
