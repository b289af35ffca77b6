"""HTTP smoke test: start the server, hit every endpoint."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import config
from repro.service import make_server, shard

# Each test boots (and tears down) a real threaded HTTP server; the CI
# smoke job skips these and leaves them to the full matrix.
pytestmark = pytest.mark.slow

CSV = "a,b,c\n" + "\n".join(f"{i % 7},{i * 1.5},g{i % 3}" for i in range(300))

#: Two float measures (so Correlation plots them) and one dimension.
MEASURES_CSV = "x,y,g\n" + "\n".join(
    f"{i * 1.5},{(i * 7) % 11 + 0.25},g{i % 3}" for i in range(300)
)


TOKEN = "s3cret-token"


@pytest.fixture
def server():
    config.precompute_debounce_s = 0.0
    srv = make_server().serve_background()
    yield srv
    srv.manager.shutdown()
    srv.stop()


@pytest.fixture
def auth_server():
    config.precompute_debounce_s = 0.0
    srv = make_server(auth_token=TOKEN).serve_background()
    yield srv
    srv.manager.shutdown()
    srv.stop()


def call(server, method: str, path: str, body=None, token=None):
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        server.address + path, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def strict_get(server, path: str) -> dict:
    """GET ``path`` and parse the body as RFC 8259 JSON (no NaN/Infinity)."""

    def reject(name: str) -> None:
        raise ValueError(f"non-standard JSON constant {name}")

    with urllib.request.urlopen(server.address + path, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read(), parse_constant=reject)


def assert_distribution_served(server, session_id: str, column: str) -> None:
    recs = strict_get(server, f"/v1/sessions/{session_id}/recommendations")
    distribution = recs["actions"]["Distribution"]
    assert distribution["count"] > 0
    histograms = {tuple(spec["fields"]): spec for spec in distribution["specs"]}
    values = histograms[(column,)]["vegalite"]["data"]["values"]
    assert values and all(row["count"] >= 0 for row in values)


class TestHTTPApi:
    def test_full_lifecycle(self, server):
        # Create from inline CSV with a per-session overlay.
        status, info = call(
            server, "POST", "/v1/sessions", {"csv": CSV, "config": {"top_k": 3}}
        )
        assert status == 201
        assert info["columns"] == ["a", "b", "c"]
        session_id = info["session"]

        # The always-on pass from creation lands without any further call.
        assert server.manager.engine.wait_idle(30)
        status, recs = call(
            server, "GET", f"/v1/sessions/{session_id}/recommendations"
        )
        assert status == 200
        assert recs["provenance"]["origin"] == "precompute"
        assert recs["actions"]
        for payload in recs["actions"].values():
            assert payload["count"] <= 3
            for spec in payload["specs"]:
                assert spec["vegalite"]["$schema"].startswith("https://vega")

        # Steer with intent; narrowed single-action read.
        status, _ = call(
            server, "POST", f"/v1/sessions/{session_id}/intent", {"intent": ["b"]}
        )
        assert status == 200
        assert server.manager.engine.wait_idle(30)
        status, one = call(
            server,
            "GET",
            f"/v1/sessions/{session_id}/recommendations?action=Enhance",
        )
        assert status == 200
        assert list(one["actions"]) == ["Enhance"]

        # Listing, info, health.
        status, listing = call(server, "GET", "/v1/sessions")
        assert status == 200 and session_id in listing["sessions"]
        status, info = call(server, "GET", f"/v1/sessions/{session_id}")
        assert status == 200 and info["intent"]
        status, health = call(server, "GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        assert {"pool", "store", "precompute", "computation_cache"} <= set(health)

        # Close; the session and its store entries are gone.
        status, closed = call(server, "DELETE", f"/v1/sessions/{session_id}")
        assert status == 200 and closed["closed"] == session_id
        status, _ = call(server, "GET", f"/v1/sessions/{session_id}")
        assert status == 404

    def test_bundled_dataset_with_row_cap(self, server):
        status, info = call(
            server, "POST", "/v1/sessions", {"dataset": "hpi", "rows": 20}
        )
        assert status == 201
        assert info["rows"] == 20

    def test_error_paths(self, server):
        status, err = call(server, "POST", "/v1/sessions", {})
        assert status == 400 and "error" in err
        status, err = call(server, "POST", "/v1/sessions", {"dataset": "nope"})
        assert status == 404
        status, err = call(
            server, "POST", "/v1/sessions", {"csv": CSV, "config": {"bogus": 1}}
        )
        assert status == 400 and "unknown config field" in err["error"]
        status, err = call(server, "GET", "/v1/sessions/missing/recommendations")
        assert status == 404
        status, err = call(server, "GET", "/nope")
        assert status == 404

    def test_failed_create_leaves_no_session(self, server):
        status, err = call(
            server, "POST", "/v1/sessions", {"csv": CSV, "intent": ["nope"]}
        )
        assert status == 400 and "nope" in err["error"]
        status, listing = call(server, "GET", "/v1/sessions")
        assert status == 200 and listing["sessions"] == []

    def test_refused_create_parses_no_csv(self, server, monkeypatch):
        """The override check runs before the frame is built."""

        def parse(*_args, **_kwargs):
            raise AssertionError("a refused create parsed its CSV")

        monkeypatch.setattr(shard, "read_csv_string", parse)
        for overrides in ({"service_store_budget_mb": 1}, {"no_such_field": 1}):
            body = {"csv": CSV, "config": overrides}
            status, err = call(server, "POST", "/v1/sessions", body)
            assert status == 400 and list(overrides)[0] in err["error"]
        assert server.manager.ids() == []

    def test_process_wide_override_is_refused(self, server):
        """A session may not override a process-wide setting: a 1 MiB store
        budget would act on every session and evict another's pass."""
        body = {
            "dataset": "synthetic-skewed",
            "rows": 2000,
            "config": {"precompute": False},
        }
        status, info = call(server, "POST", "/v1/sessions", body)
        assert status == 201
        path = f"/v1/sessions/{info['session']}/recommendations"
        assert call(server, "GET", path)[0] == 200  # stores the pass
        status, err = call(
            server,
            "POST",
            "/v1/sessions",
            {"csv": CSV, "config": {"service_store_budget_mb": 1}},
        )
        assert status == 400 and "service_store_budget_mb" in err["error"]
        manager = server.manager
        with pytest.raises(ValueError, match="process-wide"):
            manager.create(
                manager.get(info["session"]).frame.copy(),
                overrides={"service_store_budget_mb": 1},
            )
        assert manager.ids() == [info["session"]]
        assert manager.store.stats()["evictions"] == 0
        assert manager.get(info["session"]).recommendations(compute=False) is not None

    @pytest.mark.parametrize("precompute", [True, False])
    def test_frame_without_recommendations_is_served(self, server, precompute):
        """A header-only CSV has no recommendations: every read answers
        200 with no actions, like a cold in-process pass."""
        body = {"csv": "a,b\n", "config": {"precompute": precompute}}
        status, info = call(server, "POST", "/v1/sessions", body)
        assert status == 201 and info["rows"] == 0
        assert server.manager.engine.wait_idle(30)
        path = f"/v1/sessions/{info['session']}/recommendations"
        expected = "precompute" if precompute else "foreground"
        for _ in range(2):  # the first read may compute, the second is stored
            status, response = call(server, "GET", path)
            assert status == 200, response
            assert response["actions"] == {}
            assert response["provenance"]["origin"] == expected
            assert response["provenance"]["actions"] == {}

    def test_infinite_csv_cell_is_served_as_strict_json(self, server):
        """A ``1e400`` cell parses to inf: the body still parses as RFC 8259
        JSON, and the histogram of that column keeps its finite values."""
        csv = MEASURES_CSV.replace("\n0.0,", "\n1e400,", 1)
        status, info = call(server, "POST", "/v1/sessions", {"csv": csv})
        assert status == 201
        assert server.manager.engine.wait_idle(30)
        assert_distribution_served(server, info["session"], "x")

    def test_infinite_mutate_values_are_served_as_strict_json(self, server):
        status, info = call(server, "POST", "/v1/sessions", {"csv": MEASURES_CSV})
        assert status == 201
        values = [i * 0.5 for i in range(300)]
        values[7] = float("inf")  # json.dumps writes Infinity, which the parser accepts
        path = f"/v1/sessions/{info['session']}/mutate"
        status, _ = call(server, "POST", path, {"column": "y", "values": values})
        assert status == 200
        assert server.manager.engine.wait_idle(30)
        assert_distribution_served(server, info["session"], "y")

    def test_unknown_action_is_404(self, server):
        status, info = call(server, "POST", "/v1/sessions", {"csv": CSV})
        assert status == 201
        assert server.manager.engine.wait_idle(30)
        status, err = call(
            server,
            "GET",
            f"/v1/sessions/{info['session']}/recommendations?action=Bogus",
        )
        assert status == 404 and "Bogus" in err["error"]

    def test_auth_disabled_by_default(self, server):
        # Empty token (the default config) leaves every route open.
        status, _ = call(server, "GET", "/v1/sessions")
        assert status == 200

    def test_auth_required_on_every_route_except_healthz(self, auth_server):
        # /healthz stays open for liveness probes.
        status, health = call(auth_server, "GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        # Every other route answers 401 without (or with a wrong) token.
        probes = [
            ("GET", "/v1/sessions", None),
            ("POST", "/v1/sessions", {"csv": CSV}),
            ("GET", "/v1/sessions/whatever", None),
            ("DELETE", "/v1/sessions/whatever", None),
            ("POST", "/v1/sessions/whatever/intent", {"intent": ["b"]}),
            ("GET", "/v1/sessions/whatever/recommendations", None),
        ]
        for method, path, body in probes:
            status, err = call(auth_server, method, path, body)
            assert status == 401, (method, path, status)
            assert "bearer token" in err["error"]
            status, _ = call(auth_server, method, path, body, token="wrong")
            assert status == 401, (method, path, status)

    def test_auth_accepts_the_configured_token(self, auth_server):
        status, info = call(
            auth_server, "POST", "/v1/sessions", {"csv": CSV}, token=TOKEN
        )
        assert status == 201
        session_id = info["session"]
        status, listing = call(auth_server, "GET", "/v1/sessions", token=TOKEN)
        assert status == 200 and session_id in listing["sessions"]
        status, closed = call(
            auth_server, "DELETE", f"/v1/sessions/{session_id}", token=TOKEN
        )
        assert status == 200 and closed["closed"] == session_id

    def test_keepalive_survives_error_with_body(self, server):
        """An error response must drain the request body (keep-alive)."""
        import http.client

        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"intent": ["b"]})
            # 404s before the handler ever parses the body...
            connection.request(
                "POST", "/v1/sessions/missing/intent", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # ...and the SAME connection must stay usable afterwards —
            # including for a request with its own body (a stale body
            # cache or undrained bytes would desync it).
            connection.request(
                "POST", "/v1/sessions", body=json.dumps({"csv": CSV}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 201
            created = json.loads(response.read())
            assert created["columns"] == ["a", "b", "c"]
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()
