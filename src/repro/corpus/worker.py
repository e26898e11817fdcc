"""Worker entry: execute one (scenario document, study) unit.

:func:`execute_unit` is the pure core — parse the document, build the
scoped registries, run exactly one study through the shared
:class:`~repro.scenario.runner.ScenarioRunner`, and return a JSON-ready
payload (the same rows/text the sinks export, coerced to JSON-safe
values so the store round-trip is bit-stable).

:func:`child_main` is the subprocess wrapper the corpus runner spawns:
it applies the env-gated fault hooks (crash / delay — see
``repro.corpus.faults``), reports ``("ok", payload)`` or
``("err", type, message)`` on its pipe, and otherwise dies silently the
way a real worker death looks to the parent.  Forked workers inherit
the parent's warm die-cost memo (``repro.wafer.diecache``), which is
safe because it is value-keyed and parity-tested — a cache hit is
bit-identical to a cold evaluation.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ChipletActuaryError, CorpusError


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def execute_unit(
    document: Mapping[str, Any], study_name: str
) -> dict[str, Any]:
    """Run one study of ``document`` and return its storable payload."""
    from repro.config import build_registries
    from repro.scenario.runner import ScenarioRunner
    from repro.scenario.spec import scenario_from_dict

    spec = scenario_from_dict(document)
    study = next(
        (entry for entry in spec.studies if entry.name == study_name), None
    )
    if study is None:
        raise CorpusError(
            f"scenario {spec.name!r} has no study {study_name!r} "
            f"(studies: {[entry.name for entry in spec.studies]})"
        )
    registries = build_registries(
        {
            "nodes": dict(spec.nodes),
            "technologies": dict(spec.technologies),
            "d2d_interfaces": dict(spec.d2d_interfaces),
            "yield_models": dict(spec.yield_models),
            "wafer_geometries": dict(spec.wafer_geometries),
        }
    )
    result = ScenarioRunner().run_study(study, registries, scenario=spec.name)
    return {
        "scenario": spec.name,
        "study": result.name,
        "kind": result.kind,
        "text": result.text,
        "rows": [
            {key: _jsonable(value) for key, value in row.items()}
            for row in result.rows
        ],
    }


def child_main(
    connection: Any,
    document: Mapping[str, Any],
    study_name: str,
    unit_id: str,
) -> None:
    """Subprocess entry: run the unit, report on ``connection``, exit.

    Typed model errors travel back as ``("err", type, message)`` —
    they are deterministic, so the parent records them without retry.
    Anything that kills this process *without* a message (a segfault,
    an OOM kill, an injected crash) surfaces to the parent as a
    :class:`~repro.errors.WorkerCrash`, which *is* retried.
    """
    import os

    from repro.corpus.faults import FaultPlan

    try:
        FaultPlan.from_env().on_worker_start(unit_id)
        payload = execute_unit(document, study_name)
    except ChipletActuaryError as error:
        connection.send(("err", type(error).__name__, str(error)))
        connection.close()
        return
    except BaseException as error:  # noqa: BLE001 - report, then die
        connection.send(("err", type(error).__name__, repr(error)))
        connection.close()
        os._exit(1)
    connection.send(("ok", payload))
    connection.close()
