"""Rule registry: every contract rule self-registers under a stable id.

A rule is a class with three string class attributes — ``rule_id``
(kebab-case, used in reports, suppressions and the baseline),
``summary`` (one line for ``--format json`` and the docs check) and
``description`` (the contract it encodes) — plus two hooks:

* :meth:`Rule.check_file` — findings local to one file;
* :meth:`Rule.check_project` — findings needing the whole file set
  (e.g. import-cycle detection), run once after every file is parsed.

Rules are instantiated fresh per analysis run, so a rule may accumulate
state across ``check_file`` calls and consume it in ``check_project``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.context import FileContext, Finding


class Rule:
    """Base class for contract rules; subclass and :func:`register`."""

    rule_id: str = ""
    summary: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterable[Finding]:
        return ()


_RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``cls`` to the registry (id must be new)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _RULES[cls.rule_id] = cls
    return cls


def all_rule_ids() -> list[str]:
    """Registered rule ids, sorted (the docs table is checked against
    this list by ``tools/check_docs.py``)."""
    _ensure_loaded()
    return sorted(_RULES)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    _ensure_loaded()
    return [_RULES[rule_id]() for rule_id in sorted(_RULES)]


def _ensure_loaded() -> None:
    # Importing the rules package registers every built-in rule; done
    # lazily so context/registry stay importable without the rule set.
    import repro.analysis.rules  # noqa: F401
