"""Figure 10: FSMC reuse scheme — average cost vs reuse breadth.

Five situations of increasing reuse — (k sockets, n chiplet types) in
{(2,2), (2,4), (3,4), (4,4), (4,6)} — each building every collocation
of 1..k chiplets (500k units per system).  Schemes: per-system SoC,
MCM and 2.5D multi-chip with fully shared chips and package.  Bars are
quantity-weighted average per-unit total cost, normalized to the average
RE cost of the SoC systems of the first situation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.canon import fold_sum
from repro.core.re_cost import compute_re_cost
from repro.experiments.common import PAPER_D2D_FRACTION
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.reuse.fsmc import FSMCConfig, build_fsmc, collocation_count
from repro.reuse.portfolio import Portfolio

DEFAULT_SITUATIONS = ((2, 2), (2, 4), (3, 4), (4, 4), (4, 6))


@dataclass(frozen=True)
class Fig10Entry:
    """One bar: average normalized cost for a (situation, scheme) pair."""

    k_sockets: int
    n_chiplets: int
    scheme: str               # "SoC" | "MCM" | "2.5D"
    system_count: int
    avg_re: float
    avg_nre_modules: float
    avg_nre_chips: float
    avg_nre_packages: float
    avg_nre_d2d: float

    @property
    def avg_nre(self) -> float:
        return (
            self.avg_nre_modules
            + self.avg_nre_chips
            + self.avg_nre_packages
            + self.avg_nre_d2d
        )

    @property
    def total(self) -> float:
        return self.avg_re + self.avg_nre

    @property
    def label(self) -> str:
        return f"k={self.k_sockets} n={self.n_chiplets}"


@dataclass(frozen=True)
class Fig10Result:
    entries: tuple[Fig10Entry, ...]
    reference: float

    def entry(self, k: int, n: int, scheme: str) -> Fig10Entry:
        for item in self.entries:
            if (
                item.k_sockets == k
                and item.n_chiplets == n
                and item.scheme == scheme
            ):
                return item
        raise KeyError((k, n, scheme))

    def situations(self) -> list[tuple[int, int]]:
        seen: list[tuple[int, int]] = []
        for item in self.entries:
            key = (item.k_sockets, item.n_chiplets)
            if key not in seen:
                seen.append(key)
        return seen


def _average_entry(
    portfolio: Portfolio,
    k: int,
    n: int,
    scheme: str,
    reference: float,
) -> Fig10Entry:
    total_quantity = portfolio.total_quantity
    re = 0.0
    modules = 0.0
    chips = 0.0
    packages = 0.0
    d2d = 0.0
    for system in portfolio.systems:
        cost = portfolio.amortized_cost(system)
        weight = system.quantity / total_quantity
        re += cost.re.total * weight
        modules += cost.amortized_nre.modules * weight
        chips += cost.amortized_nre.chips * weight
        packages += cost.amortized_nre.packages * weight
        d2d += cost.amortized_nre.d2d * weight
    return Fig10Entry(
        k_sockets=k,
        n_chiplets=n,
        scheme=scheme,
        system_count=len(portfolio.systems),
        avg_re=re / reference,
        avg_nre_modules=modules / reference,
        avg_nre_chips=chips / reference,
        avg_nre_packages=packages / reference,
        avg_nre_d2d=d2d / reference,
    )


def run_fig10(
    situations: Sequence[tuple[int, int]] = DEFAULT_SITUATIONS,
    module_area: float = 150.0,
    node_name: str = "7nm",
    quantity: float = 500_000.0,
) -> Fig10Result:
    """Regenerate the Figure 10 bars."""
    node = get_node(node_name)

    reference: float | None = None
    entries: list[Fig10Entry] = []
    for k, n in situations:
        config = FSMCConfig(
            n_chiplets=n,
            k_sockets=k,
            module_area=module_area,
            node=node,
            quantity=quantity,
            d2d_fraction=PAPER_D2D_FRACTION,
        )
        mcm_study = build_fsmc(config, mcm())
        interposer_study = build_fsmc(config, interposer_25d())
        assert mcm_study.system_count == collocation_count(n, k)

        if reference is None:
            total_quantity = mcm_study.soc.total_quantity
            reference = fold_sum(
                compute_re_cost(system).total * system.quantity
                for system in mcm_study.soc.systems
            ) / total_quantity

        entries.append(_average_entry(mcm_study.soc, k, n, "SoC", reference))
        entries.append(
            _average_entry(mcm_study.multichip, k, n, "MCM", reference)
        )
        entries.append(
            _average_entry(interposer_study.multichip, k, n, "2.5D", reference)
        )
    assert reference is not None
    return Fig10Result(entries=tuple(entries), reference=reference)
