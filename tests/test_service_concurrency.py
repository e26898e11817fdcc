"""Concurrency contract: batched, interleaved, threaded evaluation is
bit-identical to sequential evaluation, with no cross-talk between
override sets, per-request error isolation and a bounded queue."""

import concurrent.futures
import json
import os
import sys
import threading
import time

import pytest

from repro.errors import UnknownNodeError
from repro.service.batching import BatcherClosed, CostBatcher, QueueFullError
from repro.service.schemas import CostRequest
from repro.service.state import ServiceState, evaluate_cost


def _workload() -> list[CostRequest]:
    """A mix that must not cross-contaminate: three override sets
    (default pricing, poisson, poisson+450mm) interleaved over
    distinct design points."""
    requests = []
    for index in range(10):
        area = 200.0 + 37.0 * index
        requests.append(CostRequest(area=area))
        requests.append(
            CostRequest(area=area, chiplets=3, integration="mcm",
                        yield_model="poisson")
        )
        requests.append(
            CostRequest(area=area, chiplets=4, integration="2.5d",
                        yield_model="poisson", wafer_geometry="450mm")
        )
    return requests


class TestBatchEquivalence:
    def test_batch_bit_identical_to_sequential(self):
        requests = _workload()
        state = ServiceState()
        sequential = [evaluate_cost(request) for request in requests]
        batched = state.evaluate_cost_batch(requests)
        assert batched == sequential

    def test_override_groups_do_not_cross_talk(self):
        """The same area priced under three override sets must give
        three different answers, and each must match its own
        sequential oracle — a shared-engine cache bug would leak one
        override set's die pricing into another."""
        area = 512.0
        trio = [
            CostRequest(area=area),
            CostRequest(area=area, yield_model="poisson"),
            CostRequest(area=area, yield_model="poisson",
                        wafer_geometry="450mm"),
        ]
        state = ServiceState()
        batched = state.evaluate_cost_batch(trio)
        totals = [result.total for result in batched]
        assert len(set(totals)) == 3
        for request, result in zip(trio, batched):
            assert result == evaluate_cost(request)


class TestThreadedBatcher:
    def test_threaded_stress_bit_identical(self):
        requests = _workload() * 4
        oracle = {
            request: evaluate_cost(request) for request in set(requests)
        }
        state = ServiceState()
        batcher = CostBatcher(state)
        try:
            # Every thread queues its first request while the test holds
            # the engine lock, so the storm is certain to coalesce.
            barrier = threading.Barrier(9)
            failures: list[str] = []

            def worker(chunk: list[CostRequest]) -> None:
                first = batcher.submit(chunk[0])
                barrier.wait()
                results = [first.result(timeout=60.0)] + [
                    batcher.evaluate(request, timeout=60.0)
                    for request in chunk[1:]
                ]
                for request, result in zip(chunk, results):
                    if result != oracle[request]:
                        failures.append(
                            f"mismatch for area={request.area}"
                        )

            chunks = [requests[start::8] for start in range(8)]
            threads = [
                threading.Thread(target=worker, args=(chunk,))
                for chunk in chunks
            ]
            with state.lock:
                for thread in threads:
                    thread.start()
                barrier.wait(timeout=60)
            for thread in threads:
                thread.join(timeout=120)
            assert not failures
            stats = batcher.stats()
            assert stats["batched_requests"] == len(requests)
            # The storm must actually have coalesced: fewer engine
            # batches than requests.
            assert stats["batches"] < len(requests)
            assert stats["largest_batch"] > 1
        finally:
            batcher.close()

    def test_coalesces_what_queued_while_busy(self):
        """Requests submitted while the worker waits on the engine lock
        form at most two batches: whatever the worker took before
        blocking, then everything that queued behind it."""
        requests = _workload()
        state = ServiceState()
        batcher = CostBatcher(state)
        try:
            with state.lock:
                futures = [batcher.submit(request) for request in requests]
            for request, future in zip(requests, futures):
                assert future.result(timeout=60) == evaluate_cost(request)
            stats = batcher.stats()
            assert stats["batched_requests"] == len(requests)
            assert stats["batches"] <= 2
        finally:
            batcher.close()

    def test_error_isolation(self):
        """One bad design point fails only its own future; batch-mates
        still resolve."""
        state = ServiceState()
        batcher = CostBatcher(state)
        try:
            good = CostRequest(area=300.0)
            bad = CostRequest(area=300.0, node="nope-nm")
            with state.lock:
                futures = [
                    batcher.submit(good),
                    batcher.submit(bad),
                    batcher.submit(CostRequest(area=301.0)),
                ]
            assert futures[0].result(timeout=30) == evaluate_cost(good)
            with pytest.raises(UnknownNodeError):
                futures[1].result(timeout=30)
            assert futures[2].result(timeout=30) == evaluate_cost(
                CostRequest(area=301.0)
            )
            assert batcher.stats()["batches"] <= 2
        finally:
            batcher.close()

    def test_submit_after_close(self):
        batcher = CostBatcher(ServiceState())
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit(CostRequest(area=100.0))

    def test_full_queue_rejects(self):
        """With one queue slot and the worker blocked on the engine
        lock, the worker holds the first request, the queue the second,
        and the third is refused."""
        state = ServiceState()
        batcher = CostBatcher(state, queue_size=1)
        try:
            with state.lock:
                first = batcher.submit(CostRequest(area=100.0))
                while batcher.stats()["batches"] == 0:
                    time.sleep(0.001)
                second = batcher.submit(CostRequest(area=101.0))
                with pytest.raises(QueueFullError):
                    batcher.submit(CostRequest(area=102.0))
            assert first.result(timeout=30).system
            assert second.result(timeout=30).system
        finally:
            batcher.close()


class TestUnlockedScenarios:
    def test_concurrent_scenarios_and_cost_batches_stay_exact(self):
        """Scenarios run without the state lock, so studies and cost
        batches fill the shared memos (die-cost LRU, node hashes, lazy
        builders) from several threads at once.  Four scenario runs and
        two cost batches on six threads, from a cold die-cost cache and
        with a short switch interval, must each equal a sequential run,
        and no ``requests_served`` update may be lost."""
        from repro.scenario.runner import run_scenario
        from repro.service.schemas import ScenarioRequest
        from repro.wafer.diecache import clear_die_cost_cache

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "scenario_custom_tech.json",
        )
        with open(path) as handle:
            document = json.load(handle)
        expected = [
            (study.text, tuple(dict(row) for row in study.rows))
            for study in run_scenario(document).results
        ]
        requests = _workload()
        oracle = [evaluate_cost(request) for request in requests]
        scenario = ScenarioRequest.from_dict({"scenario": document})
        state = ServiceState()
        clear_die_cost_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                runs = [
                    pool.submit(state.run_scenario, scenario)
                    for _ in range(4)
                ]
                batches = [
                    pool.submit(state.evaluate_cost_batch, requests)
                    for _ in range(2)
                ]
                results = [run.result(timeout=120) for run in runs]
                priced = [batch.result(timeout=120) for batch in batches]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert [
                (study.text, study.rows) for study in result.studies
            ] == expected
        assert priced == [oracle, oracle]
        assert state.requests_served == 4 + 2 * len(requests)


class TestResponseCacheIsolation:
    def test_no_cross_talk_between_override_sets(self):
        """Identical areas under different overrides are different
        cache keys — a collision would serve the wrong price."""
        from repro.service.cache import ResponseCache

        cache = ResponseCache(maxsize=8)
        plain = CostRequest(area=700.0)
        priced = CostRequest(area=700.0, yield_model="poisson")
        cache.put("cost", plain.canonical(), "h", {"total": 1.0})
        cache.put("cost", priced.canonical(), "h", {"total": 2.0})
        assert cache.get("cost", plain.canonical(), "h") == {"total": 1.0}
        assert cache.get("cost", priced.canonical(), "h") == {"total": 2.0}

    def test_registry_hash_invalidates(self):
        from repro.service.cache import ResponseCache

        cache = ResponseCache(maxsize=8)
        request = CostRequest(area=700.0)
        cache.put("cost", request.canonical(), "gen-1", {"total": 1.0})
        assert cache.get("cost", request.canonical(), "gen-2") is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        from repro.service.cache import ResponseCache

        cache = ResponseCache(maxsize=2)
        for index in range(3):
            cache.put("cost", f"k{index}", "h", index)
        assert cache.get("cost", "k0", "h") is None
        assert cache.get("cost", "k2", "h") == 2


def test_futures_module_contract():
    """submit() returns a real concurrent.futures.Future."""
    batcher = CostBatcher(ServiceState())
    try:
        future = batcher.submit(CostRequest(area=123.0))
        assert isinstance(future, concurrent.futures.Future)
        assert future.result(timeout=30).system
    finally:
        batcher.close()
