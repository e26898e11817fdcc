"""Contract linter: AST rules that enforce the engine's prose invariants.

The reproduction's correctness rests on contracts that used to live
only in documentation: the docs/ARCHITECTURE.md import-direction rule,
the numpy-optional fallback discipline proven by the no-numpy CI job,
value-keyed memoization hygiene, the bit-parity determinism constraints
(libm transcendentals, sequential folds, seeded streams), the
``repro.ioutil`` atomic-write contract, and the PR-6 error taxonomy.
This package encodes each as a registered AST rule and runs them via
``repro lint`` (and the CI ``analysis`` job).

Surfaces:

* :func:`analyze_paths` / :func:`analyze_sources` — run the rule suite.
* :func:`all_rule_ids` / :func:`all_rules` — the registry (the
  docs/ANALYSIS.md rule table is checked against it).
* suppressions — ``# repro-lint: ignore[rule-id]`` on the offending
  line, ``# repro-lint: ignore-file[rule-id]`` for a whole file.
* baseline — ``analysis-baseline.json`` grandfathers known findings by
  line-number-free fingerprint (kept empty by policy).

docs/ANALYSIS.md documents every rule, the contract it encodes and the
workflow; the layering rule itself pins this package beside
``repro.corpus`` (it builds only on ``repro.errors``/``repro.ioutil``).
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.analysis.baseline": ("load_baseline", "write_baseline"),
    "repro.analysis.context": ("FileContext", "Finding"),
    "repro.analysis.driver": (
        "analyze_paths", "analyze_sources", "collect_files",
    ),
    "repro.analysis.registry": (
        "Rule", "all_rule_ids", "all_rules", "register",
    ),
    "repro.analysis.report": ("AnalysisReport",),
})
