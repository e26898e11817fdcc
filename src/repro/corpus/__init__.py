"""Fault-tolerant scenario corpus runner with a content-addressed store.

``repro.corpus`` scales the scenario layer from "one JSON document" to
thousands run incrementally:

* :mod:`~repro.corpus.generator` — cartesian expansion of a scenario
  template over axes into per-study :class:`UnitSpec` work units;
* :mod:`~repro.corpus.store` — crash-safe on-disk results keyed by
  ``(spec_hash, registry_hash)`` with checksum verification and
  quarantine (:mod:`~repro.corpus.hashing`);
* :mod:`~repro.corpus.runner` — a worker-pool scheduler with per-study
  timeouts, bounded retry with exponential backoff, keep-going failure
  recording and resume-from-store semantics;
* :mod:`~repro.corpus.manifest` — the atomically rewritten run journal
  behind ``corpus status``;
* :mod:`~repro.corpus.faults` — env-gated crash/delay/corrupt hooks
  that make the robustness story testable.

CLI front-ends: ``chiplet-actuary corpus run`` / ``corpus status``.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.corpus.generator": (
        "CorpusSpec", "UnitSpec", "corpus_from_dict", "expand_template",
        "load_corpus",
    ),
    "repro.corpus.hashing": (
        "registry_hash", "registry_snapshot", "spec_hash",
    ),
    "repro.corpus.manifest": ("Manifest", "UnitRecord", "manifest_path"),
    "repro.corpus.runner": (
        "EXIT_CORRUPT", "EXIT_OK", "EXIT_PARTIAL", "CorpusOptions",
        "CorpusReport", "CorpusRunner", "UnitOutcome", "run_corpus",
    ),
    "repro.corpus.store": ("ResultStore", "StoreKey"),
    "repro.corpus.worker": ("execute_unit",),
})
