"""The always-on service: sessions, background precompute, HTTP API.

Walks the full always-on lifecycle in-process — create isolated sessions,
mutate a frame, let the background engine precompute during the idle gap,
and read recommendations as a store lookup — then does the same over the
stdlib HTTP JSON API.

Run:  PYTHONPATH=src python examples/service_api.py
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro import config
from repro.data import make_hpi
from repro.service import SessionManager, make_server


def main() -> None:
    config.precompute_debounce_s = 0.01

    # ------------------------------------------------------------------
    # 1. In-process: sessions isolate analysts.  Each gets a frozen config
    #    overlay — different top_k here — without touching global config.
    # ------------------------------------------------------------------
    manager = SessionManager()
    alice = manager.create(make_hpi(), overrides={"top_k": 3})
    bob = manager.create(make_hpi(), overrides={"top_k": 8})

    # A mutation triggers the background pass; by the time the analyst
    # looks, the answer is a store lookup (origin == "precompute").
    alice.frame["WellbeingPerCapita"] = (
        alice.frame["Wellbeing"] / alice.frame["Population"]
    )
    manager.engine.wait_idle()
    start = time.perf_counter()
    response = alice.recommendations()
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"alice read: {response['provenance']['origin']} in {elapsed_ms:.2f} ms")
    for action, payload in response["actions"].items():
        print(f"  {action}: {payload['count']} chart(s)")

    # Bob's session is untouched by Alice's mutation and overlay.
    print("bob columns:", manager.get(bob.id).frame.columns[:4], "...")
    manager.shutdown()

    # ------------------------------------------------------------------
    # 2. Over HTTP: the same machinery behind a stdlib JSON API.
    # ------------------------------------------------------------------
    server = make_server().serve_background()
    created = _call(server.address, "POST", "/v1/sessions",
                    {"dataset": "hpi", "config": {"top_k": 4}})
    session_id = created["session"]
    server.manager.engine.wait_idle()
    recs = _call(server.address, "GET",
                 f"/v1/sessions/{session_id}/recommendations")
    print(f"HTTP read: {recs['provenance']['origin']}, "
          f"actions={list(recs['actions'])}")
    health = _call(server.address, "GET", "/v1/healthz")
    print("healthz:", {k: health[k] for k in ("status", "sessions")})
    server.manager.shutdown()
    server.stop()


def _call(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


if __name__ == "__main__":
    main()
