"""Fixture-snippet tests for every contract-linter rule.

Per the ISSUE-8 acceptance criteria, each rule family is proven three
ways: it fires on a violation, it stays silent on the established
idiom, and a ``# repro-lint: ignore[rule-id]`` suppression silences it.
Sources are analyzed in memory with virtual paths, exercising the same
path-shape scoping the CLI uses.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_sources
from repro.analysis.context import canonical_path, module_name
from repro.errors import AnalysisError


def run(path: str, source: str, *extra: tuple[str, str]):
    report = analyze_sources([(path, textwrap.dedent(source)), *extra])
    return report.findings


def rules_fired(path: str, source: str) -> set[str]:
    return {finding.rule for finding in run(path, source)}


# ---------------------------------------------------------------------------
# context plumbing
# ---------------------------------------------------------------------------

def test_canonical_path_strips_src_prefix():
    assert canonical_path("src/repro/engine/fastmc.py") == "repro/engine/fastmc.py"
    assert canonical_path("tools/check_docs.py") == "tools/check_docs.py"


def test_module_name_resolution():
    assert module_name("src/repro/engine/fastmc.py") == "repro.engine.fastmc"
    assert module_name("src/repro/engine/__init__.py") == "repro.engine"
    assert module_name("src/repro/__init__.py") == "repro"
    assert module_name("tools/check_docs.py") is None


def test_syntax_error_raises_analysis_error():
    with pytest.raises(AnalysisError):
        analyze_sources([("src/repro/core/broken.py", "def f(:\n")])


def test_report_is_sorted_and_counts_files():
    report = analyze_sources(
        [
            ("src/repro/corpus/b.py", "open('x', 'w')\n"),
            ("src/repro/corpus/a.py", "open('x', 'w')\n"),
        ]
    )
    assert [f.path for f in report.findings] == [
        "repro/corpus/a.py", "repro/corpus/b.py"
    ]
    assert len(report.files) == 2


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_layering_fires_on_upward_import():
    findings = run(
        "src/repro/core/bad.py",
        "from repro.engine.costengine import CostEngine\n",
    )
    assert [f.rule for f in findings] == ["layering"]
    assert "upward import" in findings[0].message


def test_layering_clean_on_downward_and_same_layer_imports():
    assert rules_fired(
        "src/repro/engine/ok.py",
        """\
        from repro.core.system import System
        from repro.engine.packaging_affine import PackagingAffine
        from repro.errors import InvalidParameterError
        """,
    ) == set()


def test_layering_suppressed_on_line():
    assert rules_fired(
        "src/repro/core/bad.py",
        "from repro.engine.costengine import CostEngine"
        "  # repro-lint: ignore[layering]\n",
    ) == set()


def test_layering_ignores_lazy_function_level_imports():
    # The documented escape hatch: catalog.get_node consults the node
    # registry lazily, upward at runtime but not at import time.
    assert rules_fired(
        "src/repro/process/ok.py",
        """\
        def get_thing(name):
            from repro.registry.nodes import node_registry
            return node_registry().get(name)
        """,
    ) == set()


def test_layering_ignores_type_checking_imports():
    assert rules_fired(
        "src/repro/core/ok.py",
        """\
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            from repro.scenario.runner import ScenarioResult
        """,
    ) == set()


def test_layering_detects_module_scope_cycle():
    findings = run(
        "src/repro/corpus/a.py",
        "from repro.corpus.b import thing\n",
        ("src/repro/corpus/b.py", "from repro.corpus.a import other\n"),
    )
    assert [f.rule for f in findings] == ["layering"]
    assert "import cycle" in findings[0].message
    assert "repro.corpus.a" in findings[0].message


def test_layering_cycle_through_implicit_package_edge():
    # ``from repro.packaging.b import ...`` runs repro/packaging/__init__
    # first, and its eager import leads back to core.a.
    findings = run(
        "src/repro/core/a.py",
        "from repro.packaging.b import thing\n",
        ("src/repro/packaging/__init__.py",
         "from repro.packaging.c import other\n"),
        ("src/repro/packaging/b.py", "thing = 1\n"),
        ("src/repro/packaging/c.py", "from repro.core.a import thing\n"),
    )
    assert [f.rule for f in findings] == ["layering"]
    assert findings[0].message == (
        "import cycle: repro.core.a -> repro.packaging -> "
        "repro.packaging.c -> repro.core.a"
    )


def test_layering_skips_the_importers_own_packages():
    # c runs inside repro.packaging, so importing its sibling b adds no
    # edge back to the package that is already initializing.
    assert not run(
        "src/repro/packaging/__init__.py",
        "from repro.packaging.c import other\n",
        ("src/repro/packaging/b.py", "thing = 1\n"),
        ("src/repro/packaging/c.py", "from repro.packaging.b import thing\n"),
    )


def test_layering_unmapped_package_needs_a_layer_assignment():
    findings = run("src/repro/newpkg/mod.py", "x = 1\n")
    assert [f.rule for f in findings] == ["layering"]
    assert "no layer assignment" in findings[0].message


def test_layering_leaf_override_is_enforced_both_ways():
    # search.frontier ranks with the model core (docs/ARCHITECTURE.md
    # leaf carve-out): explore may import it sideways...
    assert rules_fired(
        "src/repro/explore/pareto2.py",
        "from repro.search.frontier import dominance_mask\n",
    ) == set()
    # ...and the leaf itself may not grow an upward import.
    findings = run(
        "src/repro/search/frontier.py",
        "from repro.engine.costengine import CostEngine\n",
    )
    assert [f.rule for f in findings] == ["layering"]


# ---------------------------------------------------------------------------
# numpy-guard
# ---------------------------------------------------------------------------

def test_numpy_guard_fires_on_bare_top_level_import():
    findings = run("src/repro/engine/bad.py", "import numpy as np\n")
    assert [f.rule for f in findings] == ["numpy-guard"]


def test_numpy_guard_fires_on_from_import():
    assert rules_fired(
        "src/repro/wafer/bad.py", "from numpy import asarray\n"
    ) == {"numpy-guard"}


def test_numpy_guard_clean_on_guarded_idiom():
    assert rules_fired(
        "src/repro/engine/ok.py",
        """\
        try:  # numpy accelerates the loop; the model never requires it
            import numpy as _np
        except ImportError:
            _np = None
        """,
    ) == set()


def test_numpy_guard_clean_on_function_level_import():
    assert rules_fired(
        "src/repro/engine/ok.py",
        """\
        def fast_path():
            import numpy as np
            return np
        """,
    ) == set()


def test_numpy_guard_out_of_scope_for_tools():
    assert rules_fired("tools/bench_helper.py", "import numpy\n") == set()


def test_numpy_guard_suppressed():
    assert rules_fired(
        "src/repro/engine/bad.py",
        "import numpy as np  # repro-lint: ignore[numpy-guard]\n",
    ) == set()


# ---------------------------------------------------------------------------
# cache-safety
# ---------------------------------------------------------------------------

def test_cache_safety_fires_on_mutable_default():
    findings = run(
        "src/repro/engine/bad.py",
        """\
        import functools

        @functools.lru_cache(maxsize=128)
        def f(a, pool=[]):
            return a
        """,
    )
    assert [f.rule for f in findings] == ["cache-safety"]
    assert "mutable default" in findings[0].message


def test_cache_safety_fires_on_mutable_annotation():
    assert rules_fired(
        "src/repro/core/bad.py",
        """\
        from functools import lru_cache

        @lru_cache
        def f(xs: list) -> float:
            return 0.0
        """,
    ) == {"cache-safety"}


def test_cache_safety_fires_on_mutable_return():
    findings = run(
        "src/repro/core/bad.py",
        """\
        import functools

        @functools.cache
        def f(n):
            return [n, n + 1]
        """,
    )
    assert [f.rule for f in findings] == ["cache-safety"]
    assert "mutable container" in findings[0].message


def test_cache_safety_fires_on_parameter_mutation():
    findings = run(
        "src/repro/core/bad.py",
        """\
        import functools

        @functools.lru_cache(maxsize=None)
        def f(spec):
            spec.update({"hot": True})
            return spec.total
        """,
    )
    assert [f.rule for f in findings] == ["cache-safety"]
    assert "mutates parameter" in findings[0].message


def test_cache_safety_clean_on_value_keyed_idiom():
    # The wafer.diecache idiom: hashable value arguments, frozen result.
    assert rules_fired(
        "src/repro/wafer/ok.py",
        """\
        import functools

        @functools.lru_cache(maxsize=4096)
        def cached_cost(spec, model=None):
            return compute(spec, model)

        @functools.lru_cache(maxsize=4096)
        def scaled(area: float, fraction: float) -> float:
            return area * fraction
        """,
    ) == set()


def test_cache_safety_uncached_functions_unconstrained():
    assert rules_fired(
        "src/repro/core/ok.py",
        """\
        def f(xs: list, pool={}):
            xs.append(1)
            return [1, 2]
        """,
    ) == set()


def test_cache_safety_suppressed():
    assert rules_fired(
        "src/repro/core/bad.py",
        """\
        import functools

        @functools.cache
        def f(n):
            return [n]  # repro-lint: ignore[cache-safety]
        """,
    ) == set()


# ---------------------------------------------------------------------------
# parity-determinism
# ---------------------------------------------------------------------------

def test_determinism_fires_on_sum_over_set():
    findings = run(
        "src/repro/engine/bad.py", "total = sum({1.0, 2.0, 3.0})\n"
    )
    assert [f.rule for f in findings] == ["parity-determinism"]
    assert "unordered" in findings[0].message


def test_determinism_fires_on_sum_over_dict_values():
    assert rules_fired(
        "src/repro/search/bad.py", "total = sum(costs.values())\n"
    ) == {"parity-determinism"}


def test_determinism_fires_on_module_level_random():
    assert rules_fired(
        "src/repro/engine/bad.py",
        "import random\nx = random.gauss(0.0, 1.0)\n",
    ) == {"parity-determinism"}


def test_determinism_fires_on_from_random_import():
    assert rules_fired(
        "src/repro/engine/bad.py", "from random import gauss\n"
    ) == {"parity-determinism"}


def test_determinism_fires_on_wall_clock():
    assert rules_fired(
        "src/repro/engine/bad.py", "import time\nstamp = time.time()\n"
    ) == {"parity-determinism"}


def test_determinism_fires_on_numpy_reduction():
    findings = run("src/repro/search/bad.py", "total = np.sum(column)\n")
    assert [f.rule for f in findings] == ["parity-determinism"]
    assert "reassociate" in findings[0].message


@pytest.mark.parametrize(
    "name",
    [
        "mean", "nanmean", "std", "nanstd", "var", "nanvar", "average",
        "median", "nanmedian", "quantile", "nanquantile",
        "percentile", "nanpercentile",
    ],
)
def test_determinism_fires_on_numpy_statistics(name):
    # Statistics reduce through numpy's pairwise sum (or interpolate
    # their own way), so they break the oracle's sequential fold too.
    findings = run(
        "src/repro/explore/montecarlo.py", f"value = np.{name}(column)\n"
    )
    assert [f.rule for f in findings] == ["parity-determinism"]
    assert f"np.{name}()" in findings[0].message


@pytest.mark.parametrize(
    "name",
    [
        "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
        "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
        "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
        "asin", "acos", "atan", "atan2", "asinh", "acosh", "atanh",
        "power", "float_power", "pow", "cbrt",
    ],
)
def test_determinism_fires_on_numpy_transcendental(name):
    # The oracle calls libm one element at a time; numpy's vector
    # kernels may round the last bit differently.
    findings = run(
        "src/repro/engine/bad.py", f"value = _np.{name}(column)\n"
    )
    assert [f.rule for f in findings] == ["parity-determinism"]
    assert f"_np.{name}()" in findings[0].message
    assert "libm" in findings[0].message


@pytest.mark.parametrize("alias", ["np", "numpy"])
def test_determinism_transcendentals_under_every_numpy_alias(alias):
    assert rules_fired(
        "src/repro/search/bad.py", f"value = {alias}.exp(column)\n"
    ) == {"parity-determinism"}


def test_determinism_allows_sqrt_and_libm_bridge():
    # sqrt is correctly rounded; a libm function mapped over a column
    # is the bridge the contract asks for; math.exp is libm.
    assert rules_fired(
        "src/repro/engine/ok.py",
        """\
        import math

        root = _np.sqrt(column)
        logs = _np.fromiter(map(math.log, column), _np.float64, n)
        scale = math.exp(2.0)
        """,
    ) == set()


def test_determinism_fires_on_method_reduction():
    assert rules_fired(
        "src/repro/engine/bad.py", "total = column.sum()\n"
    ) == {"parity-determinism"}


@pytest.mark.parametrize("name", ["mean", "std", "var"])
def test_determinism_fires_on_method_statistics(name):
    assert rules_fired(
        "src/repro/search/bad.py", f"value = column.{name}()\n"
    ) == {"parity-determinism"}


def test_determinism_covers_monte_carlo_statistics_only():
    assert rules_fired(
        "src/repro/explore/montecarlo.py", "total = sum({1.0, 2.0})\n"
    ) == {"parity-determinism"}
    # The rest of the exploration layer stays out.
    assert rules_fired(
        "src/repro/explore/sensitivity.py", "value = np.mean(column)\n"
    ) == set()


def test_determinism_clean_on_blessed_idioms():
    # Seeded Random, sequential folds, ordered iteration: the contract.
    assert rules_fired(
        "src/repro/engine/ok.py",
        """\
        import random

        rng = random.Random(2022)
        prefix = _np.cumsum(column)
        spend = _np.add.accumulate(totals * quantities, axis=1)
        total = sum(values_list)
        ordered = sum(row[name] for name in names)
        """,
    ) == set()


def test_determinism_covers_packaging_and_die_columns():
    # The packaging arithmetic also runs on the search's columns, so
    # it and the shared die-cost column are held to the same contract.
    for path in (
        "src/repro/packaging/columns.py",
        "src/repro/wafer/diecolumns.py",
    ):
        assert rules_fired(path, "total = np.sum(column)\n") == {
            "parity-determinism"
        }
        assert rules_fired(path, "total = sum({1.0, 2.0})\n") == {
            "parity-determinism"
        }
    # Elsewhere in the wafer layer the rule stays out.
    assert rules_fired(
        "src/repro/wafer/harvest.py", "total = np.sum(column)\n"
    ) == set()


def test_determinism_out_of_scope_outside_engine_search():
    # corpus timing/backoff legitimately reads the clock.
    assert rules_fired(
        "src/repro/corpus/ok.py", "import time\nnow = time.monotonic()\n"
    ) == set()


def test_determinism_suppressed():
    assert rules_fired(
        "src/repro/engine/bad.py",
        "total = weights.sum()  # repro-lint: ignore[parity-determinism]\n",
    ) == set()


def test_determinism_other_precision_values_do_not_exempt():
    # No PRECISION marker opts a module out of the bit-parity contract,
    # not even the removed fast tier's.
    for marker in ('PRECISION = "exact"', 'PRECISION = "fast"'):
        assert rules_fired(
            "src/repro/engine/kernels.py",
            f"{marker}\n\ntotal = np.sum(column)\n",
        ) == {"parity-determinism"}
    assert rules_fired(
        "src/repro/engine/kernels.py",
        'def f(column):\n    PRECISION = "fast"\n    return np.sum(column)\n',
    ) == {"parity-determinism"}


# ---------------------------------------------------------------------------
# atomic-write
# ---------------------------------------------------------------------------

def test_atomic_write_fires_on_open_w_in_corpus():
    findings = run(
        "src/repro/corpus/bad.py",
        "with open(path, 'w', encoding='utf-8') as handle:\n"
        "    handle.write(payload)\n",
    )
    assert [f.rule for f in findings] == ["atomic-write"]


def test_atomic_write_fires_on_pathlib_writer_in_sinks():
    assert rules_fired(
        "src/repro/scenario/sinks.py", "target.write_text(body)\n"
    ) == {"atomic-write"}


def test_atomic_write_fires_on_append_and_exclusive_modes():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        "open(p, 'a').write(x)\nopen(q, mode='xb')\n",
    ) == {"atomic-write"}


def test_atomic_write_clean_on_reads_and_ioutil():
    assert rules_fired(
        "src/repro/corpus/ok.py",
        """\
        from repro.ioutil import atomic_write_text

        def save(path, text):
            atomic_write_text(path, text)

        def load(path):
            with open(path, 'r', encoding='utf-8') as handle:
                return handle.read()

        def corrupt_in_place(path):
            with open(path, 'r+b') as handle:
                handle.write(b'x')
        """,
    ) == set()


def test_atomic_write_out_of_scope_elsewhere():
    # config/spec/reporting save helpers are outside the contract scope.
    assert rules_fired(
        "src/repro/reporting/save.py", "open(p, 'w').write(x)\n"
    ) == set()


def test_atomic_write_suppressed():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        "open(p, 'w').write(x)  # repro-lint: ignore[atomic-write]\n",
    ) == set()


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------

def test_taxonomy_fires_on_bare_value_error_in_scenario():
    findings = run(
        "src/repro/scenario/bad.py",
        "def f(kind):\n    raise ValueError(f'unknown kind {kind}')\n",
    )
    assert [f.rule for f in findings] == ["error-taxonomy"]
    assert "StudyError" in findings[0].message


def test_taxonomy_fires_on_bare_key_error_in_corpus():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        "def f(unit):\n    raise KeyError(unit)\n",
    ) == {"error-taxonomy"}


def test_taxonomy_clean_on_contextual_errors_and_reraise():
    assert rules_fired(
        "src/repro/scenario/ok.py",
        """\
        from repro.errors import ConfigError, StudyError

        def f(kind):
            raise StudyError('bad kind', scenario='s', study='x', kind=kind)

        def g(payload):
            try:
                return payload['kind']
            except KeyError:
                raise ConfigError('study needs a kind') from None

        def h():
            try:
                risky()
            except Exception:
                raise
        """,
    ) == set()


def test_taxonomy_out_of_scope_in_model_core():
    # The core layer legitimately raises typed builtins via subclasses,
    # and plain ones predate the taxonomy; only scenario/corpus promised
    # contextual errors.
    assert rules_fired(
        "src/repro/reporting/ok.py",
        "def f(name):\n    raise KeyError(name)\n",
    ) == set()


def test_taxonomy_suppressed():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        "def f(unit):\n"
        "    raise KeyError(unit)  # repro-lint: ignore[error-taxonomy]\n",
    ) == set()


# ---------------------------------------------------------------------------
# suppression machinery
# ---------------------------------------------------------------------------

def test_bare_ignore_suppresses_every_rule_on_the_line():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        "open(p, 'w').write(x)  # repro-lint: ignore\n",
    ) == set()


def test_ignore_file_suppresses_named_rule_everywhere():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        """\
        # repro-lint: ignore-file[atomic-write]
        open(p, 'w').write(x)
        open(q, 'w').write(y)
        """,
    ) == set()


def test_ignore_file_leaves_other_rules_active():
    assert rules_fired(
        "src/repro/corpus/bad.py",
        """\
        # repro-lint: ignore-file[atomic-write]
        def f(unit):
            raise KeyError(unit)
        """,
    ) == {"error-taxonomy"}


def test_suppressions_are_counted_not_dropped():
    report = analyze_sources(
        [(
            "src/repro/corpus/bad.py",
            "open(p, 'w').write(x)  # repro-lint: ignore[atomic-write]\n",
        )]
    )
    assert report.findings == ()
    assert report.suppressed == 1
