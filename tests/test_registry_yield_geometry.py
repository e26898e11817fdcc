"""Yield-model and wafer-geometry registries: built-ins, declarative
specs, scoped layering, and scenario-study consumption."""

import pytest

from repro.config import build_registries
from repro.errors import ConfigError, RegistryError
from repro.process.catalog import get_node
from repro.registry.geometries import (
    register_wafer_geometry,
    wafer_geometry_from_spec,
    wafer_geometry_registry,
    wafer_geometry_to_spec,
)
from repro.registry.yieldmodels import (
    YieldModelEntry,
    register_yield_model,
    yield_model_from_spec,
    yield_model_registry,
    yield_model_to_spec,
)
from repro.wafer.geometry import WaferGeometry
from repro.yieldmodel.models import (
    GrossYield,
    NegativeBinomialYield,
    PoissonYield,
    yield_model_for_node,
)


class TestYieldModelRegistry:
    def test_builtin_families_registered(self):
        names = yield_model_registry().names()
        for family in ("negative-binomial", "seeds", "poisson", "murphy",
                       "exponential", "bose-einstein"):
            assert family in names

    def test_node_binding_matches_paper_default(self, n7):
        entry = yield_model_registry().get("negative-binomial")
        model = entry.for_node(n7)
        assert isinstance(model, NegativeBinomialYield)
        assert model.die_yield(200.0) == yield_model_for_node(n7).die_yield(200.0)

    def test_spec_with_overrides(self, n7):
        entry = yield_model_from_spec(
            {"model": "negative-binomial", "cluster_param": 4.0}, name="c4"
        )
        model = entry.for_node(n7)
        assert model.cluster_param == 4.0
        assert model.defect_density == n7.defect_density

    def test_gross_factor_wraps(self, n7):
        entry = yield_model_from_spec(
            {"model": "poisson", "gross_factor": 0.9}, name="gross"
        )
        model = entry.for_node(n7)
        assert isinstance(model, GrossYield)
        assert isinstance(model.base, PoissonYield)
        assert model.die_yield(100.0) == pytest.approx(
            0.9 * model.base.die_yield(100.0)
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(RegistryError):
            yield_model_from_spec({"model": "quantum"}, name="bad")

    def test_unknown_param_rejected(self):
        with pytest.raises(RegistryError):
            YieldModelEntry(name="bad", model="poisson",
                            params={"cluster_param": 2.0})

    def test_to_spec_round_trip(self):
        entry = yield_model_from_spec(
            {"model": "bose-einstein", "critical_layers": 3,
             "gross_factor": 0.95, "description": "test"},
            name="be3",
        )
        spec = yield_model_to_spec(entry)
        rebuilt = yield_model_from_spec(spec, name="be3")
        assert rebuilt == entry

    def test_global_registration(self, n7):
        register_yield_model("test-poisson", {"model": "poisson"})
        try:
            entry = yield_model_registry().get("test-poisson")
            assert entry.for_node(n7).die_yield(50.0) > 0
        finally:
            yield_model_registry().unregister("test-poisson")


class TestWaferGeometryRegistry:
    def test_builtin_formats(self):
        registry = wafer_geometry_registry()
        assert registry.get("300mm").diameter == 300.0
        assert registry.get("200mm").diameter == 200.0
        assert registry.get("450mm").diameter == 450.0

    def test_full_spec(self):
        geometry = wafer_geometry_from_spec(
            {"diameter": 300.0, "edge_exclusion": 3.0, "scribe_width": 0.1}
        )
        assert geometry == WaferGeometry(300.0, 3.0, 0.1)

    def test_derived_spec(self):
        geometry = wafer_geometry_from_spec({"base": "300mm",
                                             "edge_exclusion": 2.0})
        assert geometry.diameter == 300.0
        assert geometry.edge_exclusion == 2.0

    def test_unknown_field_rejected(self):
        with pytest.raises(RegistryError):
            wafer_geometry_from_spec({"diameter": 300.0, "notch": True})

    def test_missing_diameter_rejected(self):
        with pytest.raises(RegistryError):
            wafer_geometry_from_spec({"edge_exclusion": 3.0})

    def test_to_spec_round_trip(self):
        geometry = WaferGeometry(200.0, 1.5, 0.08)
        assert wafer_geometry_from_spec(
            wafer_geometry_to_spec(geometry)
        ) == geometry

    def test_global_registration(self):
        register_wafer_geometry("test-fmt", {"diameter": 150.0})
        try:
            assert wafer_geometry_registry().get("test-fmt").diameter == 150.0
        finally:
            wafer_geometry_registry().unregister("test-fmt")


class TestScopedLayering:
    def test_document_sections_stay_scoped(self):
        registries = build_registries(
            {
                "yield_models": {"doc-poisson": {"model": "poisson"}},
                "wafer_geometries": {"doc-fmt": {"base": "300mm",
                                                 "scribe_width": 0.1}},
            }
        )
        assert "doc-poisson" in registries.yield_models
        assert "doc-fmt" in registries.geometries
        assert "doc-poisson" not in yield_model_registry()
        assert "doc-fmt" not in wafer_geometry_registry()

    def test_malformed_section_raises_config_error(self):
        with pytest.raises(ConfigError):
            build_registries({"yield_models": {"bad": {"model": "nope"}}})


class TestScenarioConsumption:
    """Partition studies select yield model / geometry by name."""

    def _spec(self, **study_extra):
        from repro.scenario import PartitionSweepStudy, ScenarioSpec

        return ScenarioSpec(
            name="yield-geom",
            yield_models={"p97": {"model": "poisson", "gross_factor": 0.97}},
            wafer_geometries={"prod": {"base": "300mm", "edge_exclusion": 3.0,
                                       "scribe_width": 0.1}},
            studies=(
                PartitionSweepStudy(
                    name="sweep", module_area=400.0, node="7nm",
                    technology="mcm", chiplet_counts=(2,), **study_extra
                ),
            ),
        )

    def test_overrides_change_pricing(self):
        from repro.scenario import run_scenario

        default = run_scenario(self._spec()).result("sweep").data
        custom = run_scenario(
            self._spec(yield_model="p97", wafer_geometry="prod")
        ).result("sweep").data
        assert custom.points[0].value.total != default.points[0].value.total

    def test_matches_direct_die_costing(self):
        from repro.core.re_cost import compute_re_cost
        from repro.explore.partition import partition_monolith
        from repro.scenario import run_scenario
        from repro.wafer.die import DieSpec, die_cost
        from repro.yieldmodel.models import GrossYield, PoissonYield

        custom = run_scenario(
            self._spec(yield_model="p97", wafer_geometry="prod")
        ).result("sweep").data
        node = get_node("7nm")
        geometry = WaferGeometry(300.0, 3.0, 0.1)

        def die_cost_fn(n, area):
            model = GrossYield(
                base=PoissonYield(defect_density=n.defect_density),
                gross_factor=0.97,
            )
            return die_cost(DieSpec(area=area, node=n, geometry=geometry), model)

        from repro.packaging.mcm import mcm

        expected = compute_re_cost(
            partition_monolith(400.0, node, 2, mcm()), die_cost_fn=die_cost_fn
        )
        assert custom.points[0].value.total == expected.total

    def test_unknown_name_raises_config_error(self):
        from repro.scenario import run_scenario

        with pytest.raises(ConfigError):
            run_scenario(self._spec(yield_model="missing"))

    def test_scenario_json_round_trip(self):
        from repro.scenario import scenario_from_dict, scenario_to_dict

        spec = self._spec(yield_model="p97", wafer_geometry="prod")
        assert scenario_from_dict(scenario_to_dict(spec)) == spec
