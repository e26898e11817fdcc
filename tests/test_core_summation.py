"""The model core sums floats left to right on every Python version.

Since Python 3.12, builtin ``sum()`` over floats is Neumaier-compensated,
so its last bit can differ from the sequential fold that the engine's
numpy columns reproduce.  Chip and system areas and the module and D2D
NRE sums go through :func:`repro.canon.fold_sum`; each case here feeds
one of them inputs whose left fold and Neumaier sum differ in bits, and
asserts the fold.

The file runs under pytest, and also as a plain script (for
interpreters without pytest)::

    PYTHONPATH=src python tests/test_core_summation.py
"""

from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.nre_cost import d2d_nre, module_nre
from repro.core.system import System
from repro.d2d.overhead import FractionOverhead
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node

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


def _assert_fold(value, terms):
    expected = _fold(terms)
    assert expected != _neumaier(terms), "inputs do not tell the sums apart"
    assert value.hex() == expected.hex(), (value, expected)


def _node(name="7nm", **changes):
    return get_node("7nm").evolve(name=name, **changes)


def _modules(node):
    return [Module(f"m{i}", area, node) for i, area in enumerate(VALUES)]


def _system(chips):
    return System(name="s", chips=tuple(chips), integration=mcm(),
                  quantity=1e6)


def test_chip_module_area_is_the_fold():
    node = _node()
    chip = Chip.of("c", _modules(node), node)
    _assert_fold(chip.module_area, VALUES)


def test_system_areas_are_the_fold():
    node = _node()
    chips = [
        Chip.of(f"c{i}", [module], node)
        for i, module in enumerate(_modules(node))
    ]
    system = _system(chips)
    _assert_fold(system.silicon_area, [chip.area for chip in chips])
    _assert_fold(system.module_area, VALUES)


def test_module_nre_is_the_fold():
    node = _node(km_per_mm2=1.0)
    _assert_fold(module_nre(Chip.of("c", _modules(node), node)), VALUES)


def test_d2d_nre_is_the_fold():
    chips = [
        Chip.of(
            f"c{i}",
            [Module(f"m{i}", 50.0, node)],
            node,
            d2d=FractionOverhead(0.1),
        )
        for i, node in enumerate(
            _node(f"7nm-{i}", d2d_interface_nre=value)
            for i, value in enumerate(VALUES)
        )
    ]
    _assert_fold(d2d_nre(_system(chips)), VALUES)


if __name__ == "__main__":
    tests = [
        test for name, test in sorted(globals().items())
        if name.startswith("test_")
    ]
    for test in tests:
        test()
    print(f"{len(tests)} passed")
