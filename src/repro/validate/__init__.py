"""Validation reference configurations (AMD-style chiplet products)."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.validate.amd": (
        "AMDConfig", "AMDComparison", "build_amd_mcm", "build_amd_monolithic",
        "compare_amd",
    ),
})
