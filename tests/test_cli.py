"""CLI commands end to end (in-process, via main())."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.cli.study import _parse_areas
from repro.config import save_portfolio
from repro.packaging.mcm import mcm
from repro.reuse.scms import SCMSConfig, build_scms


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nodes_lists_catalog(capsys):
    code, out, _err = run_cli(capsys, "nodes")
    assert code == 0
    for name in ("3nm", "5nm", "7nm", "14nm", "rdl", "si"):
        assert name in out


def test_cost_soc(capsys):
    code, out, _err = run_cli(
        capsys, "cost", "--area", "800", "--node", "5nm"
    )
    assert code == 0
    assert "RE raw_chips" in out
    assert "total per unit" in out


def test_cost_mcm(capsys):
    code, out, _err = run_cli(
        capsys,
        "cost",
        "--area", "800",
        "--node", "5nm",
        "--integration", "mcm",
        "--chiplets", "2",
    )
    assert code == 0
    assert "mcm" in out


def test_compare_ranks_schemes(capsys):
    code, out, _err = run_cli(
        capsys,
        "compare",
        "--area", "800",
        "--node", "5nm",
        "--quantity", "10000000",
    )
    assert code == 0
    for label in ("SoC", "MCM", "InFO", "2.5D"):
        assert label in out


def test_payback_reports_quantity(capsys):
    code, out, _err = run_cli(
        capsys, "payback", "--area", "800", "--node", "5nm"
    )
    assert code == 0
    assert "pays back" in out


def test_payback_never(capsys):
    code, out, _err = run_cli(
        capsys,
        "payback",
        "--area", "100",
        "--node", "14nm",
        "--integration", "2.5d",
    )
    assert code == 0
    assert "never" in out


@pytest.mark.parametrize("figure", ["2", "5", "6", "8", "9"])
def test_figure_commands(capsys, figure):
    code, out, _err = run_cli(capsys, "figure", figure)
    assert code == 0
    assert f"Fig. {figure}" in out


def test_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "3"])


@pytest.mark.parametrize("flag, value, field", [
    ("--area", "nan", "area"),
    ("--area", "inf", "area"),
    ("--d2d", "nan", "d2d_fraction"),
    ("--quantity", "nan", "quantity"),
    ("--quantity", "inf", "quantity"),
])
def test_non_finite_cost_input_is_a_typed_error(capsys, flag, value, field):
    code, out, err = run_cli(
        capsys, "cost", "--area", "400", "--integration", "mcm", flag, value
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: cost request.{field} must be a finite number, got {value}\n"
    )


def test_unknown_node_is_clean_error(capsys):
    code, _out, err = run_cli(
        capsys, "cost", "--area", "100", "--node", "4nm"
    )
    assert code == 2
    assert "error:" in err


def test_portfolio_report(capsys, tmp_path):
    study = build_scms(SCMSConfig(counts=(1, 2)), mcm())
    path = str(tmp_path / "p.json")
    save_portfolio(study.chiplet, path)
    code, out, _err = run_cli(capsys, "portfolio", path)
    assert code == 0
    assert "mcm-1x" in out
    assert "(average)" in out


def test_techs_lists_registries(capsys):
    code, out, _err = run_cli(capsys, "techs")
    assert code == 0
    for name in ("soc", "mcm", "info", "2.5d", "3d"):
        assert name in out
    assert "serdes-xsr" in out
    assert "parallel-interposer" in out


def test_run_scenario(capsys, tmp_path):
    import json

    scenario = {
        "scenario": "cli-test",
        "nodes": {"7hp": {"base": "7nm", "defect_density": 0.12}},
        "technologies": {
            "hv": {"base": "2.5d", "params": {"chip_attach_yield": 0.95}}
        },
        "studies": [
            {
                "kind": "partition_sweep",
                "name": "sweep",
                "module_area": 500.0,
                "node": "7hp",
                "technology": "hv",
                "chiplet_counts": [1, 2, 3],
            },
            {"kind": "figure", "name": "f2", "figure": 2,
             "params": {"areas": [100, 200, 300, 400]}},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, _err = run_cli(capsys, "run", str(path))
    assert code == 0
    assert "Scenario: cli-test" in out
    assert "=== sweep ===" in out
    assert "=== f2 ===" in out
    assert "7hp" in out

    # --study filters to one study
    code, out, _err = run_cli(capsys, "run", str(path), "--study", "sweep")
    assert code == 0
    assert "=== sweep ===" in out
    assert "=== f2 ===" not in out

    # unknown study name is a clean error
    code, _out, err = run_cli(capsys, "run", str(path), "--study", "nope")
    assert code == 2
    assert "error:" in err


def test_run_invalid_file_is_clean_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "error:" in err


def test_search_reports_frontier_and_top(capsys):
    code, out, _err = run_cli(
        capsys,
        "search",
        "--areas", "300,600",
        "--nodes", "7nm,14nm",
        "--technologies", "mcm",
        "--chiplets", "2,3",
        "--top-k", "3",
    )
    assert code == 0
    assert "Design-space search: 12 candidates" in out
    assert "objectives total/footprint" in out
    assert "frontier" in out
    assert "top" in out
    assert "soc x1" in out


def test_search_area_range_spec(capsys):
    code, out, _err = run_cli(
        capsys,
        "search",
        "--areas", "200:400:100",
        "--nodes", "7nm",
        "--technologies", "mcm",
        "--chiplets", "2",
        "--no-soc",
    )
    assert code == 0
    # 3 areas x 1 node x 1 tech x 1 count, no SoC reference
    assert "Design-space search: 3 candidates" in out


def test_search_named_yield_model_repriced(capsys):
    argv = ["search", "--areas", "600", "--nodes", "7nm",
            "--technologies", "mcm", "--chiplets", "2,3", "--top-k", "2"]
    code, base, _err = run_cli(capsys, *argv)
    assert code == 0
    code, priced, _err = run_cli(
        capsys, *argv, "--yield-model", "murphy",
        "--wafer-geometry", "450mm",
    )
    assert code == 0
    assert base != priced


def test_search_test_cost_objective(capsys):
    code, out, _err = run_cli(
        capsys,
        "search",
        "--areas", "600",
        "--nodes", "7nm",
        "--technologies", "mcm",
        "--chiplets", "2,3",
        "--test-cost",
        "--objectives", "test_cost,total",
    )
    assert code == 0
    assert "objectives test_cost/total" in out


@pytest.mark.parametrize("areas", ["100:900", "100:900:0", "abc"])
def test_search_bad_area_spec_is_clean_error(capsys, areas):
    code, _out, err = run_cli(capsys, "search", "--areas", areas)
    assert code == 2
    assert "error:" in err


def test_search_unknown_objective_is_clean_error(capsys):
    code, _out, err = run_cli(
        capsys, "search", "--areas", "600", "--objectives", "total,warp"
    )
    assert code == 2
    assert "error:" in err
    assert "unknown objective" in err


def test_area_range_does_not_drift():
    """Each area is ``start + index * step``: repeated addition would
    give 100.19999999999999 ... 100.99999999999994."""
    assert _parse_areas("100:101:0.1") == tuple(100 + i * 0.1 for i in range(11))
    assert _parse_areas("100:900:100") == tuple(
        float(area) for area in range(100, 901, 100)
    )
    assert _parse_areas("300:200:50") == ()


def _run_text(capsys, tmp_path, study):
    """The text ``repro run`` prints for a one-study scenario document."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"scenario": "one", "studies": [study]}))
    code, out, _err = run_cli(capsys, "run", str(path))
    assert code == 0
    header = f"Scenario: one\n\n=== {study['name']} ===\n"
    assert out.startswith(header)
    return out[len(header):]


def test_search_matches_its_scenario_study(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys, "search", "--areas", "200:400:100", "--nodes", "7nm,14nm",
        "--technologies", "mcm,2.5d", "--chiplets", "2,3", "--top-k", "4",
        "--yield-model", "murphy",
    )
    assert code == 0
    assert out == _run_text(capsys, tmp_path, {
        "kind": "search", "name": "search",
        "module_areas": [200.0, 300.0, 400.0], "nodes": ["7nm", "14nm"],
        "technologies": ["mcm", "2.5d"], "chiplet_counts": [2, 3],
        "top_k": 4, "yield_model": "murphy",
    })


def test_montecarlo_matches_its_scenario_study(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys, "montecarlo", "--area", "600", "--node", "5nm",
        "--integration", "mcm", "--chiplets", "3", "--draws", "40",
        "--seed", "5", "--wafer-geometry", "300mm",
    )
    assert code == 0
    assert out.startswith("Monte Carlo: mcm-3x200mm2-5nm (40 draws, sigma 15%)")
    assert out == _run_text(capsys, tmp_path, {
        "kind": "montecarlo", "name": "montecarlo", "module_area": 600.0,
        "node": "5nm", "technology": "mcm", "n_chiplets": 3, "draws": 40,
        "seed": 5, "wafer_geometry": "300mm",
    })


def test_closed_stdout_exits_without_traceback():
    """A reader that has already gone away (``repro figure 4 | head``)
    gets a non-zero exit and no BrokenPipeError traceback."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(repo, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr


@pytest.mark.parametrize("step", ["0", "0.5", "-0.9"])
def test_sweep_step_truncating_to_zero_is_clean_error(capsys, step):
    code, out, err = run_cli(capsys, "sweep", "--step", step)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --step must be a whole number")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--start", "--stop", "--step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_non_finite_range_is_clean_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "sweep", f"{flag}={value}")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be a finite number, got {value}\n"


def test_montecarlo_nan_sigma_is_clean_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "montecarlo", "--area", "400", "--sigma", "nan"
    )
    assert (code, out) == (2, "")
    assert err == "error: sigma must be a finite number, got nan\n"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "mc", "studies": [{
        "kind": "montecarlo", "name": "mc", "module_area": 400.0,
        "node": "5nm", "draws": 10, "sigma": float("nan"),
    }]}))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert err == "error: sigma must be a finite number, got nan\n"
