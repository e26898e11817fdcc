"""Yield models: Eq. (1) of the paper plus industry alternatives."""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.yieldmodel.models": (
        "YieldModel", "NegativeBinomialYield", "SeedsYield", "PoissonYield",
        "MurphyYield", "ExponentialYield", "BoseEinsteinYield", "GrossYield",
        "yield_model_for_node",
    ),
    "repro.yieldmodel.composite": ("SerialYield", "overall_yield"),
    "repro.yieldmodel.sampling": ("DefectDensityPrior", "sample_yields"),
})
