"""Public API surface: everything in __all__ resolves, core paths are
reachable from a single `import repro`, and that import stays cheap."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _modules():
    """``repro`` and every module and package under it, imported."""
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_all_exports_resolve():
    """Every ``__all__`` name of every package resolves, and never to a
    module object.

    Every module is imported first: importing ``repro.packaging.mcm``
    binds the package attribute ``mcm`` to the submodule, which is what
    a lazy name table would then return instead of the function.
    """
    packages = [m for m in _modules() if hasattr(m, "__path__")]
    shadowed = []
    for package in packages:
        for name in getattr(package, "__all__", ()):
            value = getattr(package, name)  # a stale entry raises
            if isinstance(value, types.ModuleType):
                shadowed.append(f"{package.__name__}.{name}")
    assert not shadowed, f"exports shadowed by submodules: {shadowed}"


def _imported(*args: str) -> set[str]:
    """Modules a fresh ``python -X importtime ARGS`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_import_repro_loads_only_the_name_table_helper():
    loaded = _imported("-c", "import repro")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("repro")} == {
        "repro", "repro.lazy"
    }


def test_cold_cost_command_skips_the_batch_layers():
    loaded = _imported(
        "-m", "repro", "cost", "--area", "400", "--node", "7nm",
        "--integration", "mcm", "--chiplets", "2",
    )
    assert "numpy" not in loaded
    skipped = (
        "repro.engine", "repro.search", "repro.scenario", "repro.corpus",
        "repro.analysis", "repro.service", "repro.reuse", "repro.config",
    )
    assert not [m for m in loaded if m.startswith(skipped)]
    unused = {
        "repro.explore.decide", "repro.registry.nodes", "repro.registry.d2d",
        "repro.registry.yieldmodels", "repro.registry.geometries",
    }
    assert not loaded & unused
    assert "repro.explore.costquery" in loaded


@pytest.mark.parametrize("flag, name, listed", [
    ("--yield-model", "nope", "poisson"),
    ("--wafer-geometry", "nope", "300mm"),
])
def test_cold_cost_with_unknown_override_lists_the_registry(flag, name, listed):
    """An override name reaches ``repro.config`` lazily in a cold
    process, and an unknown one is still a ``ConfigError`` listing the
    registry's entries (exit 2, no traceback)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "cost", "--area", "400", flag, name],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cost: unknown ")
    assert f"'{name}'" in proc.stderr and listed in proc.stderr
    assert "Traceback" not in proc.stderr


def test_served_cost_request_skips_numpy_and_the_column_kernels():
    """A warm service answering one ``POST /v1/cost`` prices through
    the per-system engine: it loads neither numpy nor the column
    kernels of the partition and search paths."""
    script = "\n".join((
        "import json, sys, urllib.request",
        "from repro.service.app import ServerThread",
        "body = {'area': 800, 'node': '5nm', 'integration': 'mcm',",
        "        'chiplets': 2}",
        "with ServerThread() as url:",
        "    request = urllib.request.Request(",
        "        url + '/v1/cost', data=json.dumps(body).encode())",
        "    with urllib.request.urlopen(request, timeout=30) as response:",
        "        assert response.status == 200",
        "        assert json.load(response)['result']",
        "print(' '.join(sys.modules))",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    loaded = set(proc.stdout.split())
    assert "repro.service.app" in loaded
    assert "numpy" not in loaded
    assert "repro.wafer.diecolumns" not in loaded
    assert "repro.engine.partition_columns" not in loaded


def test_version():
    assert repro.__version__ == "1.0.0"


def test_one_import_quickstart():
    """The README quickstart works with only the top-level import."""
    n5 = repro.get_node("5nm")
    design = repro.Module("compute", 800.0, n5)
    mono = repro.soc(
        "soc-800", [design], n5, repro.soc_package(), quantity=500_000
    )
    d2d = repro.FractionOverhead(0.10)
    half_a = repro.chiplet("a", [repro.Module("ma", 400.0, n5)], n5, d2d)
    half_b = repro.chiplet("b", [repro.Module("mb", 400.0, n5)], n5, d2d)
    multi = repro.multichip(
        "mcm-800", [half_a, half_b], repro.mcm(), quantity=500_000
    )
    assert repro.compute_re_cost(mono).total > 0
    assert repro.compute_total_cost(multi).total > 0
    payback = repro.multichip_payback_quantity(mono, multi)
    assert payback is not None


def test_subpackage_extensions_importable():
    from repro.packaging import stacked_3d
    from repro.wafer import HarvestSpec, harvested_die_cost
    from repro.explore import balance_modules, pareto_frontier
    from repro.search import run_search

    assert stacked_3d().name == "3d"
    assert HarvestSpec(0.5, 0.5).salvage_fraction == 0.5
    assert callable(harvested_die_cost)
    assert callable(balance_modules)
    assert callable(run_search)
    assert callable(pareto_frontier)


def test_error_hierarchy_exported():
    assert issubclass(repro.UnknownNodeError, repro.ChipletActuaryError)
    assert issubclass(repro.InvalidParameterError, repro.ChipletActuaryError)


def test_docstrings_on_public_callables():
    """Every public item reachable from the top level is documented."""
    undocumented = []
    for name in repro.__all__:
        item = getattr(repro, name)
        if callable(item) and not getattr(item, "__doc__", None):
            undocumented.append(name)
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_pyproject_names_the_package_version_and_console_script():
    """``pyproject.toml`` carries ``repro.__version__`` and installs
    ``chiplet-actuary`` as the CLI's ``main``."""
    import tomllib

    from repro import cli

    with open(pathlib.Path(SRC).parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["name"] == "chiplet-actuary"
    assert project["version"] == repro.__version__
    assert project["scripts"] == {"chiplet-actuary": "repro.cli:main"}
    assert callable(cli.main)
