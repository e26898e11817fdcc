"""Portfolio, yield-flow, partition and roadmap sums fold left to right.

The companion of ``tests/test_core_summation.py`` for the layers above
the model core: ``Portfolio.total_nre``, ``SerialYield.loss_share``,
the bin areas of ``repro.explore.uneven`` and the roadmap totals sum
through :func:`repro.canon.fold_sum`.  Each case feeds a site terms
whose left fold and Neumaier sum (builtin ``sum()`` since Python 3.12)
differ in bits, and asserts the result an explicit left-to-right fold
gives.

The file runs under pytest, and also as a plain script (for
interpreters without pytest)::

    PYTHONPATH=src python tests/test_study_summation.py
"""

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.package_design import PackageDesign
from repro.core.system import System
from repro.d2d.overhead import FractionOverhead
from repro.explore.roadmap import (
    RoadmapAssumptions,
    RoadmapPeriod,
    RoadmapResult,
    ramp_volumes,
)
from repro.explore.uneven import PartitionAssignment, balance_modules
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node
from repro.reuse.portfolio import Portfolio
from repro.yieldmodel.composite import SerialYield

#: ``((0.0 + 0.1) + 0.2) + 0.3`` is 0.6000000000000001; a compensated
#: sum gives 0.6.
VALUES = (0.1, 0.2, 0.3)


def _fold(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


def _neumaier(values):
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def _assert_fold(value, terms, derive=lambda total: total):
    """``value`` is ``derive`` of the left fold of ``terms``, and the
    compensated sum would have given different bits."""
    expected = derive(_fold(terms))
    assert expected != derive(_neumaier(terms)), (
        "inputs do not tell the sums apart"
    )
    assert value.hex() == expected.hex(), (value, expected)


def _portfolio():
    """Three one-chiplet systems whose module, chip, package and D2D
    design NREs are exactly ``VALUES``, one distinct design each."""
    systems = []
    for index, value in enumerate(VALUES):
        node = get_node("7nm").evolve(
            name=f"7nm-{index}", km_per_mm2=1.0, kc_per_mm2=0.0,
            mask_set_cost=value, ip_fixed_cost=0.0,
            d2d_interface_nre=value,
        )
        chip = Chip.of(
            f"c{index}", [Module(f"m{index}", value, node)], node,
            d2d=FractionOverhead(0.1),
        )
        integration = mcm(nre_per_mm2=0.0, nre_fixed=value)
        systems.append(System(
            name=f"s{index}", chips=(chip,), integration=integration,
            quantity=1e6,
            package=PackageDesign.for_chips(
                f"p{index}", integration, [chip.area]
            ),
        ))
    return Portfolio(systems)


def test_portfolio_total_nre_is_the_fold():
    nre = _portfolio().total_nre()
    for component in ("modules", "chips", "packages", "d2d"):
        _assert_fold(getattr(nre, component), VALUES)


def test_serial_yield_loss_share_is_the_fold():
    stages = {"wafer": 0.5, "die": 0.51, "bond": 0.57, "test": 0.58}
    losses = [1.0 - value for value in stages.values()]
    _assert_fold(
        SerialYield(stages).loss_share("wafer"), losses,
        lambda total: (1.0 - 0.5) / total,
    )


def test_partition_bin_areas_and_imbalance_are_the_fold():
    (area,) = balance_modules(list(VALUES), 1).bin_areas
    _assert_fold(area, VALUES)
    assignment = PartitionAssignment(bins=((0,), (1,), (2,)),
                                     bin_areas=VALUES)
    _assert_fold(
        assignment.imbalance, VALUES, lambda total: 0.3 / (total / 3)
    )


def test_roadmap_totals_are_the_fold():
    assumptions = RoadmapAssumptions(periods=3, volumes=VALUES)
    _assert_fold(assumptions.total_volume, VALUES)
    result = RoadmapResult(
        system_name="s",
        periods=tuple(
            RoadmapPeriod(period=index, volume=value, re_per_unit=1.0,
                          spend=value)
            for index, value in enumerate(VALUES)
        ),
        nre_total=0.0,
    )
    _assert_fold(result.re_spend, VALUES)
    _assert_fold(result.total_volume, VALUES)


def test_ramp_weights_are_the_fold():
    volumes = ramp_volumes(1.0, 3, shape=lambda t: VALUES[int(t)])
    _assert_fold(volumes[0], VALUES, lambda total: 1.0 * 0.1 / total)


if __name__ == "__main__":
    tests = [
        test for name, test in sorted(globals().items())
        if name.startswith("test_")
    ]
    for test in tests:
        test()
    print(f"{len(tests)} passed")
