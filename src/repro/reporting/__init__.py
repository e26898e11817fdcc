"""Reporting: fixed-width tables, figure series, ASCII charts."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.reporting.table": ("Table",),
    "repro.reporting.series": ("Series", "FigureData"),
    "repro.reporting.ascii_plot": (
        "bar_chart", "line_chart", "stacked_bar_chart",
    ),
})
