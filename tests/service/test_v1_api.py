"""The ``/v1/`` API surface and its ``provenance`` envelope.

Two contracts are pinned here:

* **Golden wire shape.**  The ``provenance`` payload is frozen so it
  cannot drift without a deliberate edit, and it must be identical
  whether the response is produced in-process or crosses the shard RPC
  (the ``payload_json`` passthrough).

* **One surface.**  Only ``/v1/`` routes are served; responses carry no
  ``Deprecation`` or ``Link`` headers, and unknown routes answer 404.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import config
from repro.core.config import config_overlay
from repro.service import make_server
from repro.service.provenance import envelope
from repro.service.shard import ShardService
from repro.service.session import SessionManager

CSV = "a,b,c\n" + "\n".join(f"{i % 7},{i * 1.5},g{i % 3}" for i in range(300))


# ----------------------------------------------------------------------
# Envelope unit tests (no server)
# ----------------------------------------------------------------------
class TestProvenanceEnvelope:
    def test_v1_payload_golden_shape(self):
        """The exact /v1/ wire shape.  Do not loosen: clients parse this."""
        prov = envelope(
            version=(3, 2),
            payloads={"Correlation": {}, "Distribution": {}},
            origin="precompute",
            computed_at=1700000000.25,
            origins={"Distribution": "mixed"},
            vis_origins={"Distribution": {"abc123": "carried"}},
        )
        assert prov == {
            "origin": "precompute",
            "computed_at": 1700000000.25,
            "data_version": 3,
            "intent_epoch": 2,
            "actions": {
                "Correlation": {"origin": "precompute", "vis": None},
                "Distribution": {
                    "origin": "mixed",
                    "vis": {"abc123": "carried"},
                },
            },
        }

    def test_round_trips_through_json(self):
        prov = envelope((0, 0), {"A": {}}, "precompute", computed_at=5.0)
        assert json.loads(json.dumps(prov)) == prov


# ----------------------------------------------------------------------
# HTTP surface (real threaded server — slow, skipped by the smoke job)
# ----------------------------------------------------------------------
@pytest.fixture
def server():
    config.precompute_debounce_s = 0.0
    srv = make_server().serve_background()
    yield srv
    srv.manager.shutdown()
    srv.stop()


def call(server, method: str, path: str, body=None):
    """Like the smoke suite's helper, but also returns response headers."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.address + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.mark.slow
class TestV1Surface:
    def test_v1_routes_mirror_legacy_lifecycle(self, server):
        status, health, _ = call(server, "GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"

        status, info, _ = call(
            server, "POST", "/v1/sessions", {"csv": CSV, "config": {"top_k": 3}}
        )
        assert status == 201
        sid = info["session"]
        assert server.manager.engine.wait_idle(30)

        status, listing, _ = call(server, "GET", "/v1/sessions")
        assert status == 200 and sid in listing["sessions"]

        status, recs, _ = call(
            server, "GET", f"/v1/sessions/{sid}/recommendations"
        )
        assert status == 200 and recs["actions"]

        status, closed, _ = call(server, "DELETE", f"/v1/sessions/{sid}")
        assert status == 200 and closed["closed"] == sid

    def test_v1_serves_provenance(self, server):
        status, info, _ = call(server, "POST", "/v1/sessions", {"csv": CSV})
        assert status == 201
        sid = info["session"]
        assert server.manager.engine.wait_idle(30)

        _, v1, _ = call(server, "GET", f"/v1/sessions/{sid}/recommendations")
        assert set(v1) == {"session", "data_version", "actions", "provenance"}
        prov = v1["provenance"]
        assert set(prov) == {
            "origin", "computed_at", "data_version", "intent_epoch", "actions"
        }
        assert prov["origin"] == "precompute"
        assert prov["data_version"] == 0 and prov["intent_epoch"] == 0
        assert list(prov["actions"]) == list(v1["actions"])
        for entry in prov["actions"].values():
            assert set(entry) == {"origin", "vis"}
        # Per-vis keys (when present) must match the displayed specs'
        # echoed candidate keys.
        for name, entry in prov["actions"].items():
            if entry["vis"] is not None:
                spec_keys = {s["key"] for s in v1["actions"][name]["specs"]}
                assert set(entry["vis"]) <= spec_keys
        # The in-process read is the same response.
        assert v1 == server.manager.get(sid).recommendations()

    def test_unprefixed_routes_are_404(self, server):
        status, info, _ = call(server, "POST", "/v1/sessions", {"csv": CSV})
        assert status == 201
        sid = info["session"]
        for method, path in [
            ("GET", "/healthz"),
            ("GET", "/metrics"),
            ("GET", "/sessions"),
            ("POST", "/sessions"),
            ("GET", f"/sessions/{sid}"),
            ("GET", f"/sessions/{sid}/recommendations"),
            ("DELETE", f"/sessions/{sid}"),
        ]:
            body = {"csv": CSV} if method == "POST" else None
            status, err, headers = call(server, method, path, body)
            assert status == 404 and "error" in err, (method, path)
            assert "Deprecation" not in headers and "Link" not in headers
        # Nothing happened: the session is still there, and alone.
        assert call(server, "GET", "/v1/sessions")[1]["sessions"] == [sid]

    def test_v1_routes_carry_no_deprecation_headers(self, server):
        status, _, headers = call(server, "GET", "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers and "Link" not in headers

        status, info, headers = call(
            server, "POST", "/v1/sessions", {"csv": CSV}
        )
        assert status == 201 and "Deprecation" not in headers
        _, _, headers = call(
            server, "GET", f"/v1/sessions/{info['session']}/recommendations"
        )
        assert "Deprecation" not in headers

    def test_unknown_v1_route_is_404(self, server):
        status, err, _ = call(server, "GET", "/v1/nope")
        assert status == 404 and "error" in err


# ----------------------------------------------------------------------
# Shard RPC passthrough
# ----------------------------------------------------------------------
def test_provenance_crosses_shard_rpc():
    """The worker serializes the envelope; the supervisor never re-parses.

    The response that crosses the ``payload_json`` passthrough is the
    in-process one, ``provenance`` included.
    """
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager()
        try:
            service = ShardService(manager, shard_index=0, n_shards=1)
            created = service.handle(
                {
                    "method": "create",
                    "params": {"dataset": "synthetic-wide", "rows": 100},
                }
            )
            sid = created["result"]["session"]
            manager.engine.wait_idle(30)

            response = service.handle(
                {"method": "recommendations", "params": {"session": sid}}
            )
            payload = json.loads(response["result"]["payload_json"])
            assert set(payload["provenance"]) == {
                "origin", "computed_at", "data_version", "intent_epoch",
                "actions",
            }
            assert payload == manager.get(sid).recommendations()
        finally:
            manager.shutdown()
