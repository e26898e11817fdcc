"""Scenario output sinks and the engine-routed reuse study: structured
rows, normalized rendering, CSV/JSON export, CLI wiring."""

import csv
import json

import pytest

from repro.errors import ConfigError
from repro.scenario import (
    ReuseStudy,
    ScenarioSpec,
    SinkSpec,
    run_scenario,
    save_scenario,
    sink_from_mapping,
    write_sinks,
)


@pytest.fixture
def reuse_spec():
    return ScenarioSpec(
        name="reuse sinks",
        studies=(
            ReuseStudy(name="scms", scheme="scms", technology="mcm",
                       params={"module_area": 150.0, "counts": [1, 2]}),
        ),
    )


@pytest.fixture
def reuse_result(reuse_spec):
    return run_scenario(reuse_spec)


class TestReuseStudyRouting:
    def test_costs_bit_identical_to_oracle(self, reuse_result):
        data = reuse_result.result("scms").data
        study = data["study"]
        for portfolio_costs in data["costs"].values():
            portfolio = portfolio_costs.portfolio
            for system, cost in zip(portfolio.systems, portfolio_costs.costs):
                assert cost.total == portfolio.amortized_cost(system).total
        assert study.config.module_area == 150.0

    def test_normalized_rendering_present(self, reuse_result):
        text = reuse_result.result("scms").text
        assert "amortized total USD/unit" in text
        assert "normalized to the RE of the largest MCM system" in text
        assert "NRE modules" in text

    def test_fsmc_normalizes_to_average_soc_re(self):
        result = run_scenario(
            ScenarioSpec(
                name="fsmc-norm",
                studies=(
                    ReuseStudy(name="fsmc", scheme="fsmc", technology="mcm",
                               params={"n_chiplets": 2, "k_sockets": 2}),
                ),
            )
        )
        assert "normalized to the average SoC RE" in result.result("fsmc").text

    def test_rows_cover_every_variant_and_system(self, reuse_result):
        rows = reuse_result.result("scms").rows
        assert len(rows) == 3 * 2  # SoC / MCM / MCM+pkg x two grades
        assert {row["variant"] for row in rows} == {"SoC", "MCM", "MCM+pkg"}
        for row in rows:
            assert row["total"] == pytest.approx(
                row["re"] + row["nre_modules"] + row["nre_chips"]
                + row["nre_packages"] + row["nre_d2d"]
            )
            assert row["normalized_total"] > 0


class TestStudyRows:
    def test_partition_sweep_rows(self):
        from repro.scenario import PartitionSweepStudy

        result = run_scenario(
            ScenarioSpec(
                name="rows",
                studies=(
                    PartitionSweepStudy(name="sweep", module_area=300.0,
                                        node="7nm", technology="mcm",
                                        chiplet_counts=(1, 2)),
                ),
            )
        )
        rows = result.result("sweep").rows
        assert [row["chiplets"] for row in rows] == [1, 2]
        assert all(row["RE total"] > 0 for row in rows)

    def test_figure_studies_render_text_only(self):
        from repro.scenario import FigureStudy

        result = run_scenario(
            ScenarioSpec(
                name="fig",
                studies=(FigureStudy(figure=2, params={"areas": [100]}),),
            )
        )
        assert result.results[0].rows == ()
        assert result.results[0].text


class TestSinkSpec:
    def test_from_mapping_defaults(self):
        sink = sink_from_mapping({"directory": "out"})
        assert sink.directory == "out"
        assert sink.formats == ("csv", "json")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            sink_from_mapping({"directory": "out", "compress": True})

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            SinkSpec(directory="out", formats=("parquet",))

    def test_empty_directory_rejected(self):
        with pytest.raises(ConfigError):
            sink_from_mapping({"formats": ["csv"]})


class TestWriteSinks:
    def test_csv_and_json_written(self, reuse_result, tmp_path):
        sink = SinkSpec(directory=str(tmp_path / "out"))
        written = write_sinks(reuse_result, sink)
        csv_path = tmp_path / "out" / "reuse-sinks__scms.csv"
        json_path = tmp_path / "out" / "reuse-sinks__scms.json"
        assert str(csv_path) in written and str(json_path) in written

        with open(csv_path, newline="") as handle:
            records = list(csv.DictReader(handle))
        assert len(records) == len(reuse_result.result("scms").rows)
        assert float(records[0]["total"]) > 0

        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload["scenario"] == "reuse sinks"
        assert payload["kind"] == "reuse"
        assert payload["rows"]
        assert "normalized to" in payload["text"]

    def test_csv_skipped_without_rows(self, tmp_path):
        from repro.scenario import FigureStudy

        result = run_scenario(
            ScenarioSpec(
                name="fig-only",
                studies=(FigureStudy(figure=2, params={"areas": [100]}),),
            )
        )
        written = write_sinks(result, SinkSpec(directory=str(tmp_path)))
        assert all(path.endswith(".json") for path in written)

    def test_json_only_format(self, reuse_result, tmp_path):
        written = write_sinks(
            reuse_result, SinkSpec(directory=str(tmp_path), formats=("json",))
        )
        assert all(path.endswith(".json") for path in written)


class TestCLIWiring:
    def _write_spec(self, tmp_path, sinks=None):
        spec = ScenarioSpec(
            name="cli-sinks",
            sinks=sinks or {},
            studies=(
                ReuseStudy(name="scms", scheme="scms", technology="mcm",
                           params={"module_area": 150.0, "counts": [1, 2]}),
            ),
        )
        path = str(tmp_path / "scenario.json")
        save_scenario(spec, path)
        return path

    def test_sink_dir_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_spec(tmp_path)
        out_dir = tmp_path / "exports"
        assert main(["run", path, "--sink-dir", str(out_dir)]) == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert (out_dir / "cli-sinks__scms.csv").stat().st_size > 0
        assert (out_dir / "cli-sinks__scms.json").stat().st_size > 0

    def test_sinks_section_honored(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        path = self._write_spec(
            tmp_path, sinks={"directory": "auto-out", "formats": ["json"]}
        )
        assert main(["run", path]) == 0
        files = list((tmp_path / "auto-out").iterdir())
        assert files and all(f.suffix == ".json" for f in files)

    def test_no_sinks_no_export(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_spec(tmp_path)
        assert main(["run", path]) == 0
        assert "wrote" not in capsys.readouterr().out

    def test_sink_dir_completes_directory_less_section(self, tmp_path, capsys):
        """A sinks section naming only formats is completed (not
        rejected) by --sink-dir."""
        from repro.cli import main

        path = self._write_spec(tmp_path, sinks={"formats": ["json"]})
        out_dir = tmp_path / "completed"
        assert main(["run", path, "--sink-dir", str(out_dir)]) == 0
        files = list(out_dir.iterdir())
        assert files and all(f.suffix == ".json" for f in files)

    def test_sink_format_alone_requires_directory(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_spec(tmp_path)
        assert main(["run", path, "--sink-format", "json"]) == 2
        assert "directory" in capsys.readouterr().err

    def test_unknown_sink_format_rejected_before_the_run(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = self._write_spec(tmp_path)
        out_dir = tmp_path / "never"
        assert main(["run", path, "--sink-dir", str(out_dir),
                     "--sink-format", "xml"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown formats ['xml']" in captured.err
        assert "'csv', 'json'" in captured.err
        assert not out_dir.exists()
