"""Declarative scenario layer: describe studies as data, run them batched.

``ScenarioSpec`` (``repro.scenario.spec``) is the JSON-round-trippable
description of a study campaign — custom nodes/technologies plus
figure/partition/Monte-Carlo/Pareto/sensitivity/reuse studies — and
``ScenarioRunner`` (``repro.scenario.runner``) executes it through the
batched :class:`~repro.engine.costengine.CostEngine` fast paths.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.scenario.spec": (
        "FIGURE_IDS", "REUSE_SCHEMES", "STUDY_TYPES", "FigureStudy",
        "MonteCarloStudy", "ParetoStudy", "PartitionGridStudy",
        "PartitionSweepStudy", "ReuseStudy", "ScenarioSpec", "SearchStudy",
        "SensitivityStudy", "SystemsStudy", "load_scenario", "save_scenario",
        "scenario_from_dict", "scenario_to_dict", "study_from_dict",
        "study_to_dict",
    ),
    "repro.scenario.runner": (
        "ScenarioResult", "ScenarioRunner", "StudyResult", "run_scenario",
    ),
    "repro.scenario.sinks": (
        "SINK_FORMATS", "SinkSpec", "sink_from_mapping", "write_sinks",
    ),
})
