"""Wafer geometry, pricing and die cost."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.wafer.geometry": (
        "RETICLE_LIMIT_MM2", "WaferGeometry", "dies_per_wafer",
        "wafer_utilization", "fits_reticle",
    ),
    "repro.wafer.die": ("DieCost", "DieSpec", "die_cost"),
    "repro.wafer.diecache": (
        "cached_die_cost", "clear_die_cost_cache", "die_cost_cache_info",
        "no_cache",
    ),
    "repro.wafer.harvest": (
        "NO_HARVEST", "HarvestSpec", "harvest_saving", "harvested_die_cost",
    ),
})
