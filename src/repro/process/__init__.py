"""Process technology database: nodes, density scaling, defect learning."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.process.node": ("ProcessNode",),
    "repro.process.catalog": (
        "NODES", "get_node", "list_nodes", "logic_nodes", "packaging_nodes",
    ),
    "repro.process.scaling": ("area_scale_factor", "scale_area"),
    "repro.process.defects": ("DefectLearningCurve",),
})
