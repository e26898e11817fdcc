"""Shared fixtures for the Chiplet Actuary test suite."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import sys

import pytest

import repro
from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.system import System
from repro.d2d.overhead import FractionOverhead
from repro.packaging.info import info
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.packaging.soc import soc_package
from repro.process.catalog import get_node
from repro.reuse.portfolio import Portfolio


@pytest.fixture
def no_numpy(monkeypatch):
    """Run the test on the scalar fallbacks: ``_np = None`` in every
    ``repro`` module that keeps the numpy flag.

    Every ``repro`` module is imported first, so the switch covers all
    of them at once: no test can turn off numpy in some modules and
    leave it on in the ones they call, and no module loaded later in
    the test brings it back.
    """
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "repro" and "_np" in vars(module):
            monkeypatch.setattr(module, "_np", None)


@pytest.fixture
def n5():
    return get_node("5nm")


@pytest.fixture
def n7():
    return get_node("7nm")


@pytest.fixture
def n14():
    return get_node("14nm")


@pytest.fixture
def d2d10():
    return FractionOverhead(0.10)


@pytest.fixture
def soc_pkg():
    return soc_package()


@pytest.fixture
def mcm_tech():
    return mcm()


@pytest.fixture
def info_tech():
    return info()


@pytest.fixture
def interposer_tech():
    return interposer_25d()


@pytest.fixture
def simple_module(n7):
    return Module("simple", 200.0, n7)


@pytest.fixture
def simple_chiplet(simple_module, n7, d2d10):
    return Chip.of("simple-chiplet", (simple_module,), n7, d2d=d2d10)


@pytest.fixture
def simple_soc(simple_module, n7, soc_pkg):
    die = Chip.of("simple-die", (simple_module,), n7)
    return System(
        name="simple-soc", chips=(die,), integration=soc_pkg, quantity=1e6
    )


@pytest.fixture
def simple_mcm(simple_chiplet, mcm_tech):
    return System(
        name="simple-mcm",
        chips=(simple_chiplet, simple_chiplet),
        integration=mcm_tech,
        quantity=1e6,
    )


@pytest.fixture
def study_portfolios():
    """``study -> [Portfolio, ...]``: the portfolio fields of an
    SCMS/OCME/FSMC study dataclass, in field order."""

    def portfolios(study):
        found = [
            getattr(study, field.name)
            for field in dataclasses.fields(study)
            if isinstance(getattr(study, field.name), Portfolio)
        ]
        assert found, f"{type(study).__name__} holds no portfolios"
        return found

    return portfolios
