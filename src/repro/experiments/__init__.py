"""Experiment harnesses: one module per quantitative paper figure.

Each module exposes a ``run_figN`` function returning a structured
result that benchmarks print, tests schema-check, and examples reuse.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.experiments.fig2": ("Fig2Result", "run_fig2"),
    "repro.experiments.fig4": ("Fig4Panel", "Fig4Cell", "run_fig4"),
    "repro.experiments.fig5": ("Fig5Result", "run_fig5"),
    "repro.experiments.fig6": ("Fig6Entry", "Fig6Result", "run_fig6"),
    "repro.experiments.fig8": ("Fig8Entry", "Fig8Result", "run_fig8"),
    "repro.experiments.fig9": ("Fig9Entry", "Fig9Result", "run_fig9"),
    "repro.experiments.fig10": ("Fig10Entry", "Fig10Result", "run_fig10"),
})
