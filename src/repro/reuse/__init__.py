"""Chiplet reuse: portfolios, package reuse, SCMS / OCME / FSMC schemes."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.reuse.portfolio": ("Portfolio",),
    "repro.reuse.scms": ("SCMSConfig", "SCMSStudy", "build_scms"),
    "repro.reuse.ocme": ("OCMEConfig", "OCMEStudy", "build_ocme"),
    "repro.reuse.fsmc": (
        "FSMCConfig", "FSMCStudy", "build_fsmc", "collocation_count",
        "enumerate_collocations",
    ),
})
