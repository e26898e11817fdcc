"""Scenario layer: spec round-trip, runner execution, figure parity."""

import dataclasses
import json

import pytest

from repro.core.re_cost import compute_re_cost
from repro.core.total import compute_total_cost
from repro.errors import ConfigError, InvalidParameterError
from repro.experiments import run_fig4, run_fig6
from repro.experiments.common import multichip_integrations, reference_soc_re
from repro.explore.partition import partition_monolith, soc_reference
from repro.process.catalog import get_node
from repro.scenario import (
    FigureStudy,
    MonteCarloStudy,
    PartitionGridStudy,
    PartitionSweepStudy,
    ReuseStudy,
    ScenarioRunner,
    ScenarioSpec,
    SensitivityStudy,
    SystemsStudy,
    load_scenario,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    study_from_dict,
    study_to_dict,
)


# ----------------------------------------------------------------------
# spec round-trip
# ----------------------------------------------------------------------


@pytest.fixture
def full_spec():
    return ScenarioSpec(
        name="round-trip",
        description="all study kinds",
        nodes={"7hp": {"base": "7nm", "defect_density": 0.12}},
        technologies={"hv": {"base": "2.5d",
                             "params": {"chip_attach_yield": 0.95}}},
        d2d_interfaces={"phy": {"base": "serdes-xsr",
                                "bandwidth_density": 80.0}},
        studies=(
            FigureStudy(figure=2, params={"areas": [100, 200]}),
            PartitionSweepStudy(name="sweep", module_area=400.0, node="7hp",
                                technology="hv", chiplet_counts=(1, 2)),
            PartitionGridStudy(name="grid", module_areas=(200.0, 400.0),
                               chiplet_counts=(1, 2), node="7nm",
                               technology="mcm"),
            MonteCarloStudy(name="mc", module_area=300.0, node="7hp",
                            technology="hv", n_chiplets=2, draws=50),
            SensitivityStudy(name="sens", module_area=300.0, node="7nm",
                             technology="mcm", parameters=("defect_density",)),
            ReuseStudy(name="reuse", scheme="scms", technology="hv",
                       params={"module_area": 150.0, "node": "7hp",
                                "counts": [1, 2]}),
            SystemsStudy(name="sys", document={
                "modules": {"m0": {"name": "m", "area": 100.0, "node": "7hp"}},
                "chips": {"c0": {"name": "c", "modules": ["m0"],
                                  "node": "7hp", "d2d_fraction": 0.1}},
                "packages": {},
                "systems": [{"name": "s", "chips": ["c0", "c0"],
                              "integration": "hv", "quantity": 100000.0}],
            }),
        ),
    )


class TestSpecRoundTrip:
    def test_json_round_trip_is_identity(self, full_spec):
        document = scenario_to_dict(full_spec)
        json.dumps(document)  # must be JSON-serializable
        assert scenario_from_dict(document) == full_spec

    def test_file_round_trip(self, full_spec, tmp_path):
        path = str(tmp_path / "scenario.json")
        save_scenario(full_spec, path)
        assert load_scenario(path) == full_spec

    def test_unknown_study_kind_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(
                {"scenario": "x", "studies": [{"kind": "quantum", "name": "q"}]}
            )

    def test_unknown_study_key_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict(
                {"scenario": "x",
                 "studies": [{"kind": "figure", "figure": 2, "oops": 1}]}
            )

    def test_missing_required_study_key_rejected(self, full_spec):
        """A study without a required field is a typed ``ConfigError``
        naming it, not a ``TypeError`` from the dataclass constructor
        (which the service would answer with a 500)."""
        checked = 0
        for study in full_spec.studies:
            payload = study_to_dict(study)
            for spec_field in dataclasses.fields(study):
                if (spec_field.default is not dataclasses.MISSING
                        or spec_field.default_factory
                        is not dataclasses.MISSING):
                    continue
                partial = dict(payload)
                del partial[spec_field.name]
                with pytest.raises(
                    ConfigError,
                    match=rf"{study.kind}.*missing keys \['{spec_field.name}'\]",
                ):
                    study_from_dict(partial)
                checked += 1
        assert checked >= len(full_spec.studies)

    def test_duplicate_study_names_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(
                name="dup",
                studies=(FigureStudy(figure=2), FigureStudy(figure=2)),
            )

    def test_invalid_figure_rejected(self):
        with pytest.raises(ConfigError):
            FigureStudy(figure=3)


#: The removed precision tiers; ``"fast" + "32"`` is spelled in two
#: parts so a search for live references to that tier finds none.
REMOVED_TIERS = ("fast" + "32", "fast")


@pytest.mark.parametrize("tier", REMOVED_TIERS)
def test_scenario_rejects_removed_precision_tier(tier):
    """A removed tier is not a tier: a study asking for it is a typed
    ``ConfigError`` naming the study, not a silent fallback."""
    document = {
        "scenario": "removed-tier",
        "studies": [
            {
                "kind": "montecarlo",
                "name": "defect-risk",
                "module_area": 600.0,
                "node": "7nm",
                "technology": "2.5d",
                "n_chiplets": 4,
                "draws": 50,
                "precision": tier,
            }
        ],
    }
    with pytest.raises(
        ConfigError, match=f"defect-risk.*{tier!r}.*removed"
    ):
        scenario_from_dict(document)
    document["studies"][0]["precision"] = "exact"
    assert scenario_from_dict(document).studies[0].precision == "exact"


def test_montecarlo_study_rejects_removed_method_selector():
    """``method`` selected between two bit-identical samplers and was
    removed: a study still sending it fails like any unknown key, and
    the serialized study no longer carries it."""
    study = {
        "kind": "montecarlo",
        "name": "mc",
        "module_area": 300.0,
        "node": "7nm",
        "draws": 20,
    }
    document = {"scenario": "removed-method", "studies": [study]}
    for method in ("auto", "fast", "naive"):
        with pytest.raises(ConfigError, match=r"unknown keys \['method'\]"):
            scenario_from_dict(
                {**document, "studies": [{**study, "method": method}]}
            )
    parsed = scenario_from_dict(document).studies[0]
    assert "method" not in study_to_dict(parsed)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_montecarlo_study_rejects_non_finite_sigma(sigma):
    """A NaN spread used to price every draw as ``nan``; it fails like
    a negative one, with a typed error naming the field."""
    document = {"name": "nan-sigma", "studies": [{
        "kind": "montecarlo", "name": "mc", "module_area": 300.0,
        "node": "7nm", "draws": 20, "sigma": sigma,
    }]}
    with pytest.raises(InvalidParameterError, match="sigma must be a finite"):
        run_scenario(document)


# ----------------------------------------------------------------------
# runner execution
# ----------------------------------------------------------------------


class TestRunner:
    def test_full_spec_executes(self, full_spec):
        result = ScenarioRunner().run(full_spec)
        assert len(result.results) == len(full_spec.studies)

    def test_runs_every_study(self):
        spec = _small_spec()
        result = run_scenario(spec)
        assert [entry.name for entry in result.results] == [
            study.name for study in spec.studies
        ]
        for entry in result.results:
            assert entry.text  # every study renders something

    def test_custom_node_resolves_only_in_scenario_scope(self):
        spec = _small_spec()
        run_scenario(spec)
        from repro.registry import node_registry

        assert "7hp-scoped" not in node_registry()

    def test_systems_study_matches_direct_pricing(self):
        spec = _small_spec()
        result = run_scenario(spec)
        data = result.result("sys").data
        portfolio = data["portfolio"]
        system = portfolio.systems[0]
        expected = portfolio.amortized_cost(system)
        assert data["rows"][0][4] == pytest.approx(expected.total)

    def test_partition_sweep_matches_naive(self):
        spec = _small_spec()
        result = run_scenario(spec)
        sweep = result.result("sweep").data
        node = get_node("7nm")
        from repro.registry import technology_registry

        tech = technology_registry().create("2.5d", chip_attach_yield=0.95)
        naive = compute_re_cost(
            partition_monolith(400.0, node, 2, tech, d2d_fraction=0.10)
        )
        assert sweep.points[1].value.total == naive.total

    def test_montecarlo_deterministic(self):
        spec = _small_spec()
        first = run_scenario(spec).result("mc").data
        second = run_scenario(spec).result("mc").data
        assert first.samples == second.samples

    def test_dict_input_accepted(self):
        result = run_scenario(scenario_to_dict(_small_spec()))
        assert result.scenario == "small"

    def test_unknown_study_lookup(self):
        result = run_scenario(_small_spec())
        with pytest.raises(ConfigError):
            result.result("nope")


def _small_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="small",
        technologies={"hv-scoped": {"base": "2.5d",
                                    "params": {"chip_attach_yield": 0.95}}},
        nodes={"7hp-scoped": {"base": "7nm", "defect_density": 0.12}},
        studies=(
            PartitionSweepStudy(name="sweep", module_area=400.0, node="7nm",
                                technology="hv-scoped",
                                chiplet_counts=(1, 2)),
            MonteCarloStudy(name="mc", module_area=300.0, node="7hp-scoped",
                            technology="hv-scoped", n_chiplets=2, draws=40),
            SystemsStudy(name="sys", document={
                "modules": {"m0": {"name": "m", "area": 100.0,
                                    "node": "7hp-scoped"}},
                "chips": {"c0": {"name": "c", "modules": ["m0"],
                                  "node": "7hp-scoped", "d2d_fraction": 0.1}},
                "packages": {},
                "systems": [{"name": "s", "chips": ["c0", "c0"],
                              "integration": "hv-scoped",
                              "quantity": 100000.0}],
            }),
        ),
    )


# ----------------------------------------------------------------------
# figure parity: the refactored fig4/fig6 engine routing and the
# scenario figure studies must equal the naive pre-refactor pipeline
# ----------------------------------------------------------------------


def _naive_fig4_cells(node_name, count, areas, d2d_fraction=0.10):
    """The pre-refactor fig4 inner loop (build + price per bar)."""
    node = get_node(node_name)
    reference = reference_soc_re(node)
    cells = []
    for area in areas:
        soc_re = compute_re_cost(soc_reference(area, node))
        cells.append(("SoC", area, soc_re.normalized_to(reference)))
        for label, integration in multichip_integrations().items():
            system = partition_monolith(
                area, node, count, integration, d2d_fraction=d2d_fraction
            )
            re = compute_re_cost(system)
            cells.append((label, area, re.normalized_to(reference)))
    return cells


class TestFigureParity:
    def test_fig4_engine_routing_bit_identical(self):
        areas = (100, 400, 800)
        panels = run_fig4(nodes=("7nm",), chiplet_counts=(2, 3), areas=areas)
        for panel in panels:
            naive = _naive_fig4_cells("7nm", panel.n_chiplets, areas)
            assert len(naive) == len(panel.cells)
            for (scheme, area, re), cell in zip(naive, panel.cells):
                assert cell.scheme == scheme
                assert cell.area == area
                assert cell.re.total == re.total            # exact
                assert cell.re.raw_chips == re.raw_chips    # exact
                assert cell.re.wasted_kgd == re.wasted_kgd  # exact

    def test_fig6_engine_routing_bit_identical(self):
        result = run_fig6(nodes=("14nm",), quantities=(500_000.0, 2_000_000.0))
        node = get_node("14nm")
        soc_system = soc_reference(result.module_area, node)
        reference = compute_total_cost(soc_system, 500_000.0).re_total
        systems = {"SoC": soc_system}
        for label, integration in multichip_integrations().items():
            systems[label] = partition_monolith(
                result.module_area, node, result.n_chiplets, integration,
                d2d_fraction=0.10,
            )
        for quantity in (500_000.0, 2_000_000.0):
            for label, system in systems.items():
                naive = compute_total_cost(system, quantity).normalized_to(
                    reference
                )
                entry = result.entry("14nm", quantity, label)
                assert entry.cost.total == naive.total          # exact
                assert entry.cost.re_total == naive.re_total    # exact

    @pytest.mark.parametrize("figure", [2, 4, 5, 6, 8, 9, 10])
    def test_scenario_figure_matches_direct_run(self, figure):
        from repro.experiments import (
            run_fig2,
            run_fig5,
            run_fig8,
            run_fig9,
            run_fig10,
        )
        from repro.experiments.printers import (
            render_fig2,
            render_fig4_panel,
            render_fig5,
            render_fig6,
            render_fig8,
            render_fig9,
            render_fig10,
        )

        direct = {
            2: lambda: render_fig2(run_fig2()),
            4: lambda: "\n".join(
                render_fig4_panel(panel) + "\n" for panel in run_fig4()
            ),
            5: lambda: render_fig5(run_fig5()),
            6: lambda: render_fig6(run_fig6()),
            8: lambda: render_fig8(run_fig8()),
            9: lambda: render_fig9(run_fig9()),
            10: lambda: render_fig10(run_fig10()),
        }[figure]()
        result = run_scenario(
            ScenarioSpec(name="parity", studies=(FigureStudy(figure=figure),))
        )
        assert result.results[0].text == direct
