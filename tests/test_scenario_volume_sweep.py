"""Reuse volume sweeps declared from scenario JSON: spec round-trip,
runner output and parity, sink rows, and end-to-end export."""

import csv
import json

import pytest

from repro.engine.fastportfolio import PortfolioEngine
from repro.errors import ConfigError
from repro.scenario import (
    ReuseStudy,
    ScenarioRunner,
    scenario_from_dict,
    study_from_dict,
    study_to_dict,
)

SCALES = (0.25, 1.0, 4.0)


def _spec_dict(**overrides) -> dict:
    study = {
        "kind": "reuse",
        "name": "scms-volume",
        "scheme": "scms",
        "technology": "mcm",
        "params": {"module_area": 150.0, "node": "7nm",
                   "counts": [1, 2], "quantity": 500000.0},
        "volume_sweep": list(SCALES),
    }
    study.update(overrides)
    return {"scenario": "volume", "studies": [study]}


@pytest.fixture(scope="module")
def result():
    spec = scenario_from_dict(_spec_dict())
    return ScenarioRunner().run(spec).result("scms-volume")


class TestSpec:
    def test_round_trip_preserves_scales(self):
        study = study_from_dict(_spec_dict()["studies"][0])
        assert isinstance(study, ReuseStudy)
        assert study.volume_sweep == SCALES
        assert study_from_dict(study_to_dict(study)) == study

    def test_non_positive_scale_rejected(self):
        for bad in (0.0, -2.0, "x"):
            with pytest.raises(ConfigError, match="volume_sweep"):
                study_from_dict(
                    _spec_dict(volume_sweep=[1.0, bad])["studies"][0]
                )

    def test_default_is_no_sweep(self):
        study = study_from_dict(
            {k: v for k, v in _spec_dict()["studies"][0].items()
             if k != "volume_sweep"}
        )
        assert study.volume_sweep == ()


class TestRunner:
    def test_renders_sweep_table(self, result):
        assert "volume sweep, average total USD/unit" in result.text

    def test_data_carries_solves(self, result):
        solves = result.data["volume_sweep"]
        assert set(solves) == set(result.data["costs"])
        for solve in solves.values():
            assert solve.scales == SCALES

    def test_sweep_rows_exported(self, result):
        sweep_rows = [row for row in result.rows if "scale" in row]
        variants = {row["variant"] for row in sweep_rows}
        assert variants == set(result.data["costs"])
        # one row per (variant, scale, system)
        n_systems = len(
            next(iter(result.data["costs"].values())).portfolio.systems
        )
        assert len(sweep_rows) == len(variants) * len(SCALES) * n_systems

    def test_rows_match_direct_volume_solve(self, result):
        """Sink rows are bit-identical to a direct PortfolioEngine solve."""
        engine = PortfolioEngine()
        for variant, costs in result.data["costs"].items():
            solve = engine.volume_solve(costs.portfolio, SCALES)
            rows = [
                row for row in result.rows
                if row.get("variant") == variant and "scale" in row
            ]
            for index, scale in enumerate(SCALES):
                at_scale = [row for row in rows if row["scale"] == scale]
                assert [row["total"] for row in at_scale] == list(
                    solve.point_totals(index)
                )
                assert all(
                    row["average_total"] == solve.point_average(index)
                    for row in at_scale
                )

    def test_base_rows_still_present(self, result):
        base_rows = [row for row in result.rows if "scale" not in row]
        assert base_rows and all("re" in row for row in base_rows)


class TestEndToEnd:
    def test_example_scenario_sinks(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "run", "examples/scenario_volume_sweep.json",
            "--sink-dir", str(tmp_path),
        ])
        assert code == 0
        capsys.readouterr()
        with open(tmp_path / "reuse-volume-sweep__scms-volume.csv",
                  newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert "scale" in rows[0] and "average_total" in rows[0]
        scales = {row["scale"] for row in rows if row["scale"]}
        assert scales == {"0.25", "0.5", "1.0", "2.0", "4.0"}
        payload = json.loads(
            (tmp_path / "reuse-volume-sweep__fsmc-volume-pessimistic.json")
            .read_text()
        )
        assert any("scale" in row for row in payload["rows"])
