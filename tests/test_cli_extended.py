"""Extended CLI commands: sweep and montecarlo."""

import pytest

from repro.cli import main
from repro.explore import montecarlo


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_table_output(self, capsys):
        code, out, _err = run_cli(
            capsys, "sweep", "--node", "5nm", "--stop", "300"
        )
        assert code == 0
        for label in ("SoC", "MCM", "InFO", "2.5D"):
            assert label in out
        assert "100" in out and "300" in out

    def test_csv_output(self, capsys):
        code, out, _err = run_cli(
            capsys, "sweep", "--node", "7nm", "--stop", "200", "--csv"
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "area_mm2,SoC,MCM,InFO,2.5D"
        assert len(out.splitlines()) == 3  # header + 2 areas

    def test_chiplet_count_respected(self, capsys):
        _code, out2, _ = run_cli(
            capsys, "sweep", "--node", "5nm", "--stop", "100",
            "--chiplets", "2", "--csv",
        )
        _code, out4, _ = run_cli(
            capsys, "sweep", "--node", "5nm", "--stop", "100",
            "--chiplets", "4", "--csv",
        )
        # More chiplets -> different MCM numbers.
        assert out2 != out4


class TestMonteCarlo:
    def test_reports_statistics(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "montecarlo",
            "--area", "400",
            "--node", "5nm",
            "--draws", "50",
        )
        assert code == 0
        for label in ("mean", "std", "p05", "p50", "p95"):
            assert label in out

    def test_deterministic_given_seed(self, capsys):
        args = [
            "montecarlo", "--area", "400", "--node", "5nm",
            "--draws", "50", "--seed", "7",
        ]
        _code, first, _ = run_cli(capsys, *args)
        _code, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_multichip_variant(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "montecarlo",
            "--area", "800",
            "--node", "5nm",
            "--integration", "mcm",
            "--draws", "30",
        )
        assert code == 0
        assert "mcm" in out


class TestMonteCarloRegistryOverrides:
    """CLI `montecarlo` with registry-named die pricing."""

    def test_fast_with_registry_names_succeeds(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "montecarlo", "--area", "400", "--node", "5nm",
            "--draws", "40",
            "--yield-model", "poisson", "--wafer-geometry", "300mm",
        )
        assert code == 0
        for label in ("mean", "std", "p05", "p50", "p95"):
            assert label in out

    def test_fast_matches_naive_with_registry_names(self, capsys, monkeypatch):
        """The CLI table is the one the object-rebuilding oracle gives
        under the same registry-named die pricing."""
        args = [
            "montecarlo", "--area", "800", "--node", "5nm",
            "--integration", "2.5d", "--chiplets", "4",
            "--draws", "60", "--seed", "7",
            "--yield-model", "murphy", "--wafer-geometry", "300mm",
        ]
        code_fast, fast, _ = run_cli(capsys, *args)
        monkeypatch.setattr(
            montecarlo, "monte_carlo_cost", montecarlo.monte_carlo_cost_naive
        )
        code_naive, naive, _ = run_cli(capsys, *args)
        assert code_fast == code_naive == 0
        assert fast == naive

    def test_method_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["montecarlo", "--area", "400", "--method", "naive"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --method naive" in capsys.readouterr().err

    def test_registry_names_change_the_numbers(self, capsys):
        base = [
            "montecarlo", "--area", "400", "--node", "5nm",
            "--draws", "40", "--seed", "3",
        ]
        _code, plain, _ = run_cli(capsys, *base)
        _code, priced, _ = run_cli(capsys, *base, "--yield-model", "poisson")
        assert plain != priced

    def test_unknown_yield_model_lists_available(self, capsys):
        code, _out, err = run_cli(
            capsys,
            "montecarlo", "--area", "400", "--node", "5nm",
            "--draws", "10",
            "--yield-model", "nope",
        )
        assert code == 2
        assert "unknown yield model 'nope'" in err
        assert "negative-binomial" in err
        assert "poisson" in err

    def test_unknown_wafer_geometry_lists_available(self, capsys):
        code, _out, err = run_cli(
            capsys,
            "montecarlo", "--area", "400", "--node", "5nm",
            "--draws", "10",
            "--wafer-geometry", "nope",
        )
        assert code == 2
        assert "unknown wafer geometry 'nope'" in err
        assert "300mm" in err
