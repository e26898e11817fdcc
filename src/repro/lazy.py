"""PEP 562 name tables: the one idiom every ``repro`` package ``__init__``
uses to export its public names.

A package lists each public name once, under the module that defines
it::

    __getattr__, __dir__, __all__ = name_table(__name__, {
        "repro.core.module": ("Module", "D2D_MODULE_NAME"),
        "repro.core.chip": ("Chip",),
    })

Nothing is imported until a name is first read, so ``import repro``
(and every ``repro.*`` package on the way to a leaf module) costs only
this module.  One rule comes with the idiom: a name that equals a
sibling submodule's name (``repro.packaging.mcm``) must stay an eager
``from ... import`` in its own package, because importing the submodule
binds the package attribute to the module object and a lazy lookup is
never consulted again.

This module is a dependency-free leaf; it ranks with the model core in
the layering map (``repro.analysis.rules.layering``).
"""

from __future__ import annotations

import importlib
import sys


def name_table(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[object, object, list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from a
    ``{defining module: names}`` table."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
