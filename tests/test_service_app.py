"""HTTP end-to-end: every endpoint, CLI parity, caching, streaming,
and error mapping — all against an in-process server."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cli import main
from repro.corpus.hashing import registry_hash
from repro.service.app import (
    MAX_BODY_BYTES,
    CostServiceServer,
    ServerThread,
    _Handler,
)
from repro.service.batching import QueueFullError
from repro.service.client import ServiceClient, ServiceError
from repro.service.schemas import CostRequest, ScenarioRequest, cost_table
from repro.service.state import ServiceState, evaluate_cost


@pytest.fixture(scope="module")
def service():
    with ServerThread() as url:
        yield ServiceClient(url)


def _post_raw(client: ServiceClient, path: str, body: bytes,
              content_type: str = "application/json"):
    request = urllib.request.Request(
        client.base_url + path, data=body,
        headers={"Content-Type": content_type},
    )
    return urllib.request.urlopen(request, timeout=30)


def test_listen_backlog_holds_concurrent_clients():
    """socketserver's default backlog of 5 drops connections under a few
    dozen concurrent clients; the service listens with 128."""
    assert CostServiceServer.request_queue_size == 128


def test_full_queue_is_a_typed_503():
    def refuse(request, timeout=60.0):
        raise QueueFullError("cost queue is full; retry later")

    server_thread = ServerThread()
    server_thread.server.batcher.evaluate = refuse
    with server_thread as url:
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(url).cost(CostRequest(area=100.0))
    assert excinfo.value.status == 503
    assert excinfo.value.error_type == "QueueFullError"


def test_oversized_body_is_one_typed_413_then_close():
    """A body over the limit is refused without reading it, so the
    connection must close: left open, its bytes would be parsed as a
    follow-up request (a 65 KB run of them as a spurious 414)."""
    with ServerThread() as url:
        host, port = urllib.parse.urlsplit(url).netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/cost HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 10}".encode()
                + b"\r\n\r\n" + b"x" * 70_000
            )
            received = b""
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except ConnectionResetError:
                pass  # closed with the rest of the body unread
    head, _, rest = received.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1.1 413 ")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert headers["Content-Type"] == "application/json"
    body, extra = (
        rest[: int(headers["Content-Length"])],
        rest[int(headers["Content-Length"]):],
    )
    assert extra == b""  # exactly one response
    error = json.loads(body)["error"]
    assert error["type"] == "BodyTooLargeError"
    assert str(MAX_BODY_BYTES) in error["message"]


@pytest.mark.parametrize(
    "partial, status",
    [
        (b"POST /v1/cost HTTP/1.1\r\nHost: test\r\n", None),
        (b"POST /v1/cost HTTP/1.1\r\nHost: test\r\n"
         b"Content-Length: 40\r\n\r\n{\"area\"", b"408"),
    ],
    ids=["stalled-headers", "stalled-body"],
)
def test_stalled_client_is_disconnected(monkeypatch, partial, status):
    """A client that sends part of a request and goes quiet loses its
    connection after the handler's socket timeout instead of holding a
    thread forever; a stalled body is answered with a typed 408."""
    assert 10.0 <= _Handler.timeout <= 120.0  # the stdlib default is None
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    with ServerThread() as url:
        host, port = urllib.parse.urlsplit(url).netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(partial)
            started = time.monotonic()
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
            waited = time.monotonic() - started
    assert waited < 5.0
    if status is None:
        assert received == b""
        return
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.split()[1] == status
    error = json.loads(body)["error"]
    assert error["type"] == "RequestTimeoutError"


class TestHealthAndRegistries:
    def test_healthz(self, service):
        payload = service.health()
        assert payload["status"] == "ok"
        assert payload["registry_hash"] == registry_hash()
        assert payload["uptime_seconds"] >= 0
        assert set(payload["cache"]) >= {"entries", "hits", "misses"}
        assert set(payload["batcher"]) >= {"batches", "batched_requests"}

    def test_registries_snapshot(self, service):
        payload = service.registries()
        assert payload["registry_hash"] == registry_hash()
        assert set(payload["registries"]) == {
            "nodes", "technologies", "d2d_interfaces", "yield_models",
            "wafer_geometries",
        }
        assert "7nm" in payload["registries"]["nodes"]

    def test_unknown_route_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._json("GET", "/v1/nope")
        assert excinfo.value.status == 404


class TestCostEndpoint:
    REQUEST = CostRequest(area=640.0, node="5nm", integration="2.5d",
                          chiplets=4, quantity=1e6)

    def test_bit_identical_to_library_path(self, service):
        assert service.cost(self.REQUEST) == evaluate_cost(self.REQUEST)

    def test_bit_identical_to_cli_stdout(self, service, capsys):
        """The HTTP JSON, re-rendered through the shared table, is
        byte-identical to `repro cost` output (floats round-trip JSON
        exactly)."""
        result = service.cost(self.REQUEST)
        assert main([
            "cost", "--area", "640", "--node", "5nm",
            "--integration", "2.5d", "--chiplets", "4",
            "--quantity", "1000000",
        ]) == 0
        assert capsys.readouterr().out.strip() == (
            cost_table(result).render()
        )

    def test_yield_model_override_parity(self, service):
        request = CostRequest(area=500.0, yield_model="poisson",
                              wafer_geometry="450mm")
        assert service.cost(request) == evaluate_cost(request)

    def test_override_changes_the_answer(self, service):
        plain = service.cost(CostRequest(area=500.0))
        priced = service.cost(CostRequest(area=500.0,
                                          yield_model="poisson"))
        assert plain.total != priced.total

    def test_cached_flag_and_hit(self, service):
        request = CostRequest(area=333.0)
        first = service.cost_envelope(request)
        second = service.cost_envelope(request)
        assert first["result"] == second["result"]
        assert second["cached"] is True
        assert first["registry_hash"] == registry_hash()

    def test_cache_keyed_by_value_not_spelling(self, service):
        body = json.dumps({"node": "7nm", "area": 77.5}).encode()
        with _post_raw(service, "/v1/cost", body) as response:
            json.loads(response.read())
        envelope = service.cost_envelope(
            CostRequest.from_dict({"area": 77.5, "node": "7nm"})
        )
        assert envelope["cached"] is True

    def test_unknown_field_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._json("POST", "/v1/cost", {"area": 1, "bogus": 2})
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_unknown_node_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.cost(CostRequest(area=100.0, node="3nm-imaginary"))
        assert excinfo.value.status == 400

    def test_invalid_json_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(service, "/v1/cost", b"{not json")
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_missing_body_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(service, "/v1/cost", b"")
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_malformed_content_length_400(self, service):
        host, port = urllib.parse.urlsplit(service.base_url).netloc.split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest("POST", "/v1/cost")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            error = json.loads(response.read())["error"]
        finally:
            connection.close()
        assert response.status == 400
        assert error["type"] == "InvalidParameterError"
        assert "Content-Length" in error["message"]

    def test_unknown_yield_model_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.cost(CostRequest(area=100.0, yield_model="no-such-model"))
        assert excinfo.value.status == 400
        assert "no-such-model" in str(excinfo.value)

    @pytest.mark.parametrize("body, field", [
        (b'{"area": NaN}', "area"),
        (b'{"area": Infinity}', "area"),
        (b'{"area": 400, "d2d_fraction": NaN, "integration": "mcm"}',
         "d2d_fraction"),
        (b'{"area": 400, "quantity": -Infinity}', "quantity"),
    ])
    def test_non_finite_number_400(self, service, body, field):
        """JSON's NaN and Infinity are typed 400s, not a 500 from deep
        in the die math."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(service, "/v1/cost", body)
        error = json.loads(excinfo.value.read())["error"]
        excinfo.value.close()
        assert excinfo.value.code == 400
        assert error["type"] == "InvalidParameterError"
        assert error["message"].startswith(
            f"cost request.{field} must be a finite number, got "
        )


SCENARIO_DOC = {
    "name": "service-app-test",
    "description": "sweep + figure over the built-in registries",
    "studies": [
        {
            "kind": "partition_sweep",
            "name": "granularity",
            "module_area": 400,
            "node": "7nm",
            "technology": "mcm",
            "chiplet_counts": [1, 2, 3],
        },
    ],
}


class TestScenarioEndpoint:
    def test_matches_cli_run(self, service, capsys, tmp_path):
        result = service.scenario(SCENARIO_DOC)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        header, _, body = out.partition("\n\n")
        assert header == (
            "Scenario: service-app-test — sweep + figure over the "
            "built-in registries"
        )
        assert body.strip() == result.render().strip()

    def test_study_filter(self, service):
        result = service.scenario(SCENARIO_DOC, studies=("granularity",))
        assert [s.name for s in result.studies] == ["granularity"]

    def test_rows_survive_the_wire(self, service):
        result = service.scenario(SCENARIO_DOC)
        rows = result.studies[0].rows
        assert rows and {"chiplets"} <= set(rows[0])

    def test_stream_events(self, service):
        events = list(service.scenario_events(SCENARIO_DOC))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "scenario"
        assert kinds[-1] == "end"
        assert "study" in kinds and "row" in kinds
        studies = [e for e in events if e["event"] == "study"]
        assert studies[0]["name"] == "granularity"
        assert events[-1]["studies"] == len(studies)
        assert events[-1]["registry_hash"] == registry_hash()

    def test_stream_matches_non_stream(self, service):
        result = service.scenario(SCENARIO_DOC)
        events = list(service.scenario_events(SCENARIO_DOC))
        streamed_text = [
            event["text"] for event in events if event["event"] == "study"
        ]
        assert streamed_text == [s.text for s in result.studies]
        streamed_rows = [
            event["row"] for event in events if event["event"] == "row"
        ]
        assert streamed_rows == [
            dict(row) for study in result.studies for row in study.rows
        ]

    def test_each_run_counts_once_and_releases_the_lock(self):
        """``run_scenario`` drains ``iter_scenario``: one served request
        per run, buffered or streamed, and no lock held afterwards."""
        state = ServiceState()
        request = ScenarioRequest.from_dict({"scenario": SCENARIO_DOC})
        result = state.run_scenario(request)
        assert [study.name for study in result.studies] == ["granularity"]
        assert result.scenario == SCENARIO_DOC["name"]
        assert result.description == SCENARIO_DOC["description"]
        assert state.requests_served == 1
        assert len(list(state.iter_scenario(request))) == 2  # spec, study
        assert state.requests_served == 2
        acquired = []

        def probe_lock():
            if state.lock.acquire(timeout=5):
                acquired.append(True)
                state.lock.release()

        probe = threading.Thread(target=probe_lock)
        probe.start()
        probe.join(timeout=10)
        assert not probe.is_alive() and acquired == [True]

    def test_cost_answers_while_a_long_search_streams(
        self, service, monkeypatch
    ):
        """A 2 M-candidate search streamed from one thread does not
        stall a ``/v1/cost`` from another.  The search pauses at its
        first block until the cost reply is in (10 s at most), so the
        reply must arrive before the scenario's last event; and the
        streamed rows equal an in-process run of the same document."""
        from repro.scenario.runner import run_scenario
        from repro.search.frontier import FrontierAccumulator

        document = {"name": "long-search", "studies": [{
            "kind": "search", "name": "space",
            "module_areas": [100.0 + 0.01 * i for i in range(100_000)],
            "nodes": ["5nm", "7nm"], "technologies": ["mcm", "info"],
            "chiplet_counts": [2, 3, 4, 5, 6], "d2d_fractions": [0.1],
            "top_k": 3,
        }]}
        searching, answered = threading.Event(), threading.Event()
        add = FrontierAccumulator.add

        def paused_add(self, scores, payloads):
            if not searching.is_set():
                searching.set()
                answered.wait(timeout=10)
            add(self, scores, payloads)

        events: list[tuple[float, dict]] = []

        def stream():
            for event in service.scenario_events(document):
                events.append((time.perf_counter(), event))

        monkeypatch.setattr(FrontierAccumulator, "add", paused_add)
        reader = threading.Thread(target=stream)
        reader.start()
        assert searching.wait(timeout=60)
        request = CostRequest(area=777.25, node="5nm")
        result = service.cost(request)
        replied_at = time.perf_counter()
        answered.set()
        reader.join(timeout=120)
        monkeypatch.undo()
        assert not reader.is_alive()
        assert result == evaluate_cost(request)
        last_at, last = events[-1]
        assert last["event"] == "end"
        assert replied_at < last_at
        oracle = run_scenario(document)
        assert [e["row"] for _, e in events if e["event"] == "row"] == [
            json.loads(json.dumps(dict(row)))
            for study in oracle.results for row in study.rows
        ]

    def test_nan_sigma_400(self, service):
        body = (b'{"scenario": {"name": "mc", "studies": [{"kind": '
                b'"montecarlo", "name": "mc", "module_area": 400, '
                b'"node": "5nm", "draws": 10, "sigma": NaN}]}}')
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(service, "/v1/scenario", body)
        error = json.loads(excinfo.value.read())["error"]
        excinfo.value.close()
        assert excinfo.value.code == 400
        assert error["type"] == "InvalidParameterError"
        assert error["message"] == "sigma must be a finite number, got nan"

    def test_bad_document_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.scenario({"name": "x", "studies": [{"kind": "nope"}]})
        assert excinfo.value.status == 400


class TestSearchEndpoint:
    """A design-space search is a one-study ``search`` scenario on
    ``POST /v1/scenario``; ``/v1/search`` is not a route."""

    SPACE = {
        "module_areas": [200, 400, 600],
        "nodes": ["7nm"],
        "technologies": ["mcm", "info"],
        "chiplet_counts": [2, 3],
        "d2d_fractions": [0.1],
    }

    def _search(self, service, **overrides):
        study = {"kind": "search", "name": "space", **self.SPACE, **overrides}
        result = service.scenario({"name": "search", "studies": [study]})
        return result.studies[0]

    def test_matches_run_search(self, service):
        from repro.search.engine import candidate_rows, run_search
        from repro.search.space import DesignSpace

        study = self._search(service)
        oracle = run_search(DesignSpace(
            module_areas=(200, 400, 600),
            nodes=("7nm",),
            technologies=("mcm", "info"),
            chiplet_counts=(2, 3),
            d2d_fractions=(0.1,),
        ))
        assert study.kind == "search"
        assert f"{oracle.n_candidates} candidates" in study.text
        assert [dict(row) for row in study.rows] == candidate_rows(oracle)

    def test_overrides_change_the_answer(self, service):
        plain = self._search(service)
        priced = self._search(service, yield_model="poisson")
        assert plain.rows != priced.rows

    def test_unknown_override_name_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            self._search(service, yield_model="no-such-model")
        assert excinfo.value.status == 400
        assert "no-such-model" in str(excinfo.value)

    def test_search_route_is_a_typed_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._json("POST", "/v1/search", {"space": self.SPACE})
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"


class TestCacheInvalidation:
    def test_registry_mutation_drops_the_cache(self):
        from repro.registry.nodes import node_registry, register_node

        with ServerThread() as url:
            client = ServiceClient(url)
            request = CostRequest(area=250.0)
            assert client.cost_envelope(request)["cached"] is False
            assert client.cost_envelope(request)["cached"] is True
            spec = dict(client.registries()["registries"]["nodes"]["7nm"])
            spec["name"] = "7nm-cache-test"
            register_node("7nm-cache-test", spec)
            try:
                envelope = client.cost_envelope(request)
                # Same design point, new registry generation: recomputed.
                assert envelope["cached"] is False
                assert envelope["registry_hash"] == registry_hash()
            finally:
                node_registry().unregister("7nm-cache-test")
