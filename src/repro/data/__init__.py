"""Parameter tables with provenance notes.

Every constant in this package is either taken verbatim from the paper /
its cited public sources, or is a documented substitution for data the
paper took from commercial databases and in-house sources (each module's
docstring names which).  Import the tables, do not copy the numbers.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.data.wafer_prices": ("WAFER_PRICES", "WAFER_PRICE_SOURCES"),
    "repro.data.nre_costs": (
        "DESIGN_COST_INDEX", "MASK_SET_COSTS", "NRE_ANCHOR_5NM",
    ),
    "repro.data.packaging_costs": ("PACKAGING_DEFAULTS",),
    "repro.data.integration": ("INTEGRATION_COMPARISON",),
})
