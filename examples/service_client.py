#!/usr/bin/env python3
"""Cost-model-as-a-service: price designs over HTTP against a warm engine.

Boots the service on a background thread (port 0 picks a free port — no
daemon needed), then walks the whole API with the typed client: health
and registry snapshot, single-design pricing with response caching,
die-pricing overrides, a streamed scenario run, and a design-space
search (a scenario with one ``search`` study).  Point ``ServiceClient``
at an externally started ``python -m repro serve`` instead to talk to a
shared server.

Run:  PYTHONPATH=src python examples/service_client.py
"""

from repro import CostRequest, ScenarioRequest
from repro.explore.costquery import cost_table
from repro.service.app import ServerThread
from repro.service.client import ServiceClient

SCENARIO = {
    "name": "service-demo",
    "description": "partition granularity sweep over the warm engine",
    "studies": [
        {
            "kind": "partition_sweep",
            "name": "granularity",
            "module_area": 400,
            "node": "7nm",
            "technology": "mcm",
            "chiplet_counts": [1, 2, 3, 4],
        }
    ],
}

SEARCH = {
    "name": "service-search",
    "studies": [
        {
            "kind": "search",
            "name": "space",
            "module_areas": [200, 400, 600],
            "nodes": ["7nm"],
            "technologies": ["mcm", "info"],
            "chiplet_counts": [2, 3, 4],
            "d2d_fractions": [0.1],
        }
    ],
}


def main() -> None:
    with ServerThread() as url:
        client = ServiceClient(url)

        health = client.health()
        print(f"server {url}: {health['status']}, "
              f"registry {health['registry_hash'][:12]}")
        nodes = client.registries()["registries"]["nodes"]
        print(f"{len(nodes)} process nodes registered\n")

        # --- Price one design; the second identical call is a cache hit.
        request = CostRequest(area=640.0, node="5nm", integration="2.5d",
                              chiplets=4, quantity=1e6)
        print(cost_table(client.cost(request)).render())
        envelope = client.cost_envelope(request)
        print(f"(second call cached: {envelope['cached']})\n")

        # --- Same design under a registry-named die-pricing override.
        priced = client.cost(
            CostRequest(area=640.0, node="5nm", integration="2.5d",
                        chiplets=4, quantity=1e6, yield_model="poisson")
        )
        print(f"poisson-yield total: {priced.total:.2f} USD/unit\n")

        # --- Stream a scenario: study rows arrive as they are computed.
        for event in client.scenario_events(ScenarioRequest.from_dict(
            {"scenario": SCENARIO}
        ).to_dict()["scenario"]):
            if event["event"] == "row":
                row = event["row"]
                print(f"  {row['chiplets']} chiplets -> "
                      f"RE {row['RE total']:.2f} USD/unit")
            elif event["event"] == "end":
                print(f"scenario done ({event['studies']} studies)\n")

        # --- Design-space search: a one-study scenario, same warm engine.
        (search,) = client.scenario(SEARCH).studies
        frontier = [row for row in search.rows if row["set"] == "frontier"]
        print(f"{search.text.splitlines()[0]}: "
              f"{len(frontier)} on the frontier")
        best = min(frontier, key=lambda row: row["total"])
        print(f"cheapest frontier point: {best['scheme']} x"
              f"{best['chiplets']} @ {best['module_area']:.0f} mm^2 -> "
              f"{best['total']:.2f} USD/unit")


if __name__ == "__main__":
    main()
