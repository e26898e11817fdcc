"""Layout guard for the test suite itself.

``tests/`` and ``tests/property/`` are not packages (no
``__init__.py``), so pytest imports every test module under its bare
basename, and the property suite imports its helpers ``checks`` and
``strategies`` as top-level modules.  Two files with one basename in
the two directories abort the whole run at collection ("import file
mismatch"), and a ``tests/strategies.py`` would shadow the property
helpers.  This test names any such collision before collection does.
"""

from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _basenames(directory: Path) -> set[str]:
    return {path.name for path in directory.glob("*.py")} - {"conftest.py"}


def test_module_basenames_are_unique_across_test_directories():
    shared = _basenames(TESTS) & _basenames(TESTS / "property")
    assert not shared, (
        f"tests/ and tests/property/ both hold {sorted(shared)}; rename "
        f"one side (pytest imports test modules by basename)"
    )
