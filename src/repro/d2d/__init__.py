"""Die-to-die (D2D) interface modeling."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.d2d.interface": ("D2DInterface", "D2D_CATALOG", "interface_for"),
    "repro.d2d.overhead": (
        "D2DOverhead", "FractionOverhead", "BandwidthOverhead",
    ),
})
