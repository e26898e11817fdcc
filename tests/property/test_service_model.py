"""Model-based test of the HTTP service against one live server.

A Hypothesis state machine interleaves registry mutations with cost,
scenario and malformed requests on one in-process ``ServerThread``,
keeping a model of the registry content and of the content each
request was last served under.  Invariants, checked on every response:

* a 200 cost result equals the engine-less ``evaluate_cost`` under the
  registries live at that moment (a scenario's rows equal an in-process
  ``run_scenario`` of the same document);
* ``cached`` is true only if the registry content is unchanged since
  that request was last served.  A register followed by its unregister
  restores the content, so a hit then serves a price computed under
  identical registries;
* every error is a typed JSON 4xx or 5xx — a malformed body a 4xx —
  never a reset or a non-JSON body.

The step count is bounded so the machine adds about a second to the
suite; ``HYPOTHESIS_PROFILE=dev`` runs more examples.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.registry.nodes import node_registry, register_node
from repro.scenario import run_scenario
from repro.service.app import ServerThread
from repro.service.schemas import CostRequest, CostResult
from repro.service.state import evaluate_cost

#: The one node the machine registers and unregisters, derived from 7nm.
MODEL_NODE = "7nm-model"
DEFECT_DENSITIES = (0.05, 0.2)

COST_POOL = (
    CostRequest(area=300.0),
    CostRequest(area=500.0, node=MODEL_NODE, integration="mcm", chiplets=3),
    CostRequest(area=640.0, node=MODEL_NODE, integration="2.5d",
                chiplets=4, yield_model="poisson"),
    CostRequest(area=200.0, node="5nm", integration="info"),
    CostRequest(area=800.0, node=MODEL_NODE),
)

SCENARIO_NODES = ("7nm", MODEL_NODE)
SCENARIO_KINDS = ("partition_sweep", "search")

MALFORMED = (
    ("/v1/cost", b"{not json"),
    ("/v1/cost", b""),
    ("/v1/cost", b"[1, 2]"),
    ("/v1/cost", b'{"area": 100, "bogus": 1}'),
    ("/v1/cost", b'{"area": "big"}'),
    ("/v1/cost", b'{"node": "7nm"}'),
    ("/v1/cost", b'{"area": 100, "node": "3nm-imaginary"}'),
    ("/v1/scenario", b'{"scenario": {"name": "x", "studies": '
                     b'[{"kind": "nope"}]}}'),
    ("/v1/scenario", b'{"scenario": {"name": "x", "studies": '
                     b'[{"kind": "search", "name": "s"}]}}'),
    ("/v1/scenario", b'{"scenario": {"name": "x", "studies": [[1, 2]]}}'),
    ("/v1/scenario", b'{"studies": ["x"]}'),
    ("/v1/search", b'{"space": {}}'),
)


def _scenario(kind: str, node: str) -> dict:
    if kind == "search":
        study = {"kind": "search", "name": "space", "module_areas": [400],
                 "nodes": [node], "technologies": ["mcm"],
                 "chiplet_counts": [2, 3]}
    else:
        study = {"kind": "partition_sweep", "name": "sweep",
                 "module_area": 400, "node": node, "technology": "mcm",
                 "chiplet_counts": [1, 2, 3]}
    return {"name": "model", "studies": [study]}


@pytest.fixture(scope="module", autouse=True)
def _one_server():
    thread = ServerThread()
    with thread:
        ServiceMachine.server = thread
        yield
    ServiceMachine.server = None


@settings(stateful_step_count=12)
class ServiceMachine(RuleBasedStateMachine):
    server: ServerThread | None = None

    @initialize()
    def start(self):
        assert MODEL_NODE not in node_registry()
        self.server.server.cache.clear()
        #: The model's registry content: MODEL_NODE's defect density,
        #: or None while it is not registered.
        self.registered: float | None = None
        #: (endpoint, canonical request) -> content it was last served
        #: under.
        self.served: dict[tuple[str, str], float | None] = {}

    def teardown(self):
        if MODEL_NODE in node_registry():
            node_registry().unregister(MODEL_NODE)

    # -- transport -----------------------------------------------------

    def _post(self, path: str, body: bytes) -> tuple[int, dict]:
        host, port = urllib.parse.urlsplit(self.server.url).netloc.split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            status, raw = response.status, response.read()
            content_type = response.getheader("Content-Type")
        finally:
            connection.close()
        assert content_type == "application/json", (path, status, raw)
        return status, json.loads(raw)

    def _check_error(self, status: int, payload: dict) -> None:
        assert 400 <= status < 600, payload
        error = payload["error"]
        assert isinstance(error["type"], str) and error["type"], payload
        assert isinstance(error["message"], str), payload

    def _check_cached(self, key: tuple[str, str], envelope: dict) -> None:
        if envelope["cached"]:
            assert key in self.served, f"{key} hit before it was served"
            assert self.served[key] == self.registered, (
                f"{key} hit although the registries changed since it "
                f"was served"
            )
        self.served[key] = self.registered

    # -- rules ---------------------------------------------------------

    @rule(density=st.sampled_from(DEFECT_DENSITIES))
    def register(self, density):
        register_node(MODEL_NODE, {"base": "7nm", "defect_density": density},
                      overwrite=True)
        self.registered = density

    @rule()
    def unregister(self):
        if self.registered is not None:
            node_registry().unregister(MODEL_NODE)
            self.registered = None

    @rule(request=st.sampled_from(COST_POOL))
    def post_cost(self, request):
        status, payload = self._post(
            "/v1/cost", json.dumps(request.to_dict()).encode()
        )
        if request.node == MODEL_NODE and self.registered is None:
            assert status == 400, payload
            self._check_error(status, payload)
            return
        assert status == 200, payload
        assert CostResult.from_dict(payload["result"]) == evaluate_cost(request)
        self._check_cached(("cost", request.canonical()), payload)

    @rule(kind=st.sampled_from(SCENARIO_KINDS),
          node=st.sampled_from(SCENARIO_NODES))
    def post_scenario(self, kind, node):
        document = _scenario(kind, node)
        status, payload = self._post(
            "/v1/scenario", json.dumps({"scenario": document}).encode()
        )
        if node == MODEL_NODE and self.registered is None:
            assert status == 400, payload
            self._check_error(status, payload)
            return
        assert status == 200, payload
        (study,) = payload["result"]["studies"]
        (expected,) = run_scenario(document).results
        assert study["text"] == expected.text
        assert study["rows"] == [dict(row) for row in expected.rows]
        self._check_cached(
            ("scenario", json.dumps([kind, node])), payload
        )

    @rule(case=st.sampled_from(MALFORMED))
    def post_malformed(self, case):
        path, body = case
        status, payload = self._post(path, body)
        assert 400 <= status < 500, payload
        self._check_error(status, payload)


TestServiceModel = ServiceMachine.TestCase
