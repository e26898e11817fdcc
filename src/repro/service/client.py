"""A tiny stdlib client for the cost service.

``urllib.request`` only — the counterpart guarantee to the server's
no-new-dependencies rule, so scripts, benches and CI smoke tests can
talk to the service anywhere the repo itself runs.  Typed round-trip:
requests serialize through their schema codecs and responses parse
back into the same dataclasses the server produced.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Iterator

from repro.errors import ChipletActuaryError
from repro.service.schemas import CostRequest, CostResult, ScenarioRunResult


class ServiceError(ChipletActuaryError):
    """An error response from the service, carrying its HTTP status."""

    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(f"[{status} {error_type}] {message}")
        self.status = status
        self.error_type = error_type


class ServiceClient:
    """Blocking JSON client bound to one service base URL."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _request(self, method: str, path: str, payload: Any = None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                detail = json.loads(body)["error"]
            except (json.JSONDecodeError, KeyError, TypeError):
                raise ServiceError(
                    error.code, "HTTPError", body.decode("utf-8", "replace")
                ) from None
            raise ServiceError(
                error.code,
                str(detail.get("type", "HTTPError")),
                str(detail.get("message", "")),
            ) from None

    def _json(self, method: str, path: str, payload: Any = None) -> Any:
        with self._request(method, path, payload) as response:
            return json.loads(response.read())

    # ------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")

    def registries(self) -> dict[str, Any]:
        return self._json("GET", "/v1/registries")

    def cost(self, request: CostRequest) -> CostResult:
        envelope = self._json("POST", "/v1/cost", request.to_dict())
        return CostResult.from_dict(envelope["result"])

    def cost_envelope(self, request: CostRequest) -> dict[str, Any]:
        """The raw ``{"result", "registry_hash", "cached"}`` envelope —
        for callers that need the cache/registry metadata."""
        return self._json("POST", "/v1/cost", request.to_dict())

    def scenario(
        self, document: dict[str, Any], studies: tuple[str, ...] = ()
    ) -> ScenarioRunResult:
        payload: dict[str, Any] = {"scenario": document}
        if studies:
            payload["studies"] = list(studies)
        envelope = self._json("POST", "/v1/scenario", payload)
        return ScenarioRunResult.from_dict(envelope["result"])

    def scenario_events(
        self, document: dict[str, Any], studies: tuple[str, ...] = ()
    ) -> Iterator[dict[str, Any]]:
        """Stream the NDJSON events of a scenario run, one dict per
        event (``scenario`` / ``study`` / ``row`` / ``end`` /
        ``error``)."""
        payload: dict[str, Any] = {"scenario": document, "stream": True}
        if studies:
            payload["studies"] = list(studies)
        with self._request("POST", "/v1/scenario", payload) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)


__all__ = ["ServiceClient", "ServiceError"]
