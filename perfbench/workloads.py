"""The three closed-loop workloads: ``notebook``, ``cold_read``, ``edit_read``.

Each workload is one client thread replaying a fixed, seeded cycle of
operations and waiting for every reply.  A workload exposes:

``setup()``
    The program's set-up before timing (timed by the harness, repeated).
``prepare(state)``
    Untimed: builds the reference outputs the checks compare against.
``cycle(state, rec)``
    One cycle of operations; records samples, runs checks off the timers.
``finish(state, rec)`` / ``teardown(state)``
    Final output check, then release of servers and sessions.

Operation kinds map onto the end-to-end metrics: a *read* shows
recommendations (a print cell; a recommendations ``GET``), a *write*
changes state (a code cell; an intent or mutate ``POST``), and *fresh*
runs from sending a change until recommendations for it are ready.
"""

from __future__ import annotations

import http.client
import json
import re
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

import inputs

clock = time.perf_counter

#: Provenance origins of a read the store served (no foreground pass).
STORE_ORIGINS = ("precompute", "carried", "mixed")


class SetupError(RuntimeError):
    """The program failed before timing started."""


_HEAD = re.compile(rb'\{"session": "[^"]*", "data_version": (\[[0-9, ]*\])')
_PROVENANCE = b'"provenance": '


def envelope(body: bytes) -> tuple[list[int], dict[str, Any]]:
    """``data_version`` and ``provenance`` of a recommendations response.

    Both sit outside the large ``actions`` object, so they are read from the
    head and tail of the body; any other layout falls back to decoding the
    whole body.
    """
    head = _HEAD.match(body)
    at = body.rfind(_PROVENANCE)
    if head and at > 0:
        try:
            tail = body[at + len(_PROVENANCE):].decode("utf-8")
            return json.loads(head.group(1)), json.JSONDecoder().raw_decode(tail)[0]
        except ValueError:
            pass
    response = json.loads(body)
    return response["data_version"], response["provenance"]


def same_actions(body: bytes, reference: bytes) -> bool:
    """Whether a response's ``actions`` equal ``reference`` (JSON text).

    A body holding the reference text verbatim has equal actions; any other
    encoding of the same values is caught by decoding both.
    """
    if reference in body:
        return True
    return json.loads(body)["actions"] == json.loads(reference)


@dataclass
class Recorder:
    """Samples, failures and check time of one timed phase."""

    tracer: Any = None
    samples: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "write": [], "fresh": []}
    )
    windows: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    check_s: float = 0.0
    http_client_s: float = 0.0
    http_reads: int = 0
    read_bytes: int = 0
    cache: dict[str, int] = field(default_factory=lambda: {"hits": 0, "misses": 0})

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, ok_fn: Any, message: str) -> None:
        """Run one output check off the timers; a False or raise is a failure."""
        start = clock()
        try:
            ok = ok_fn()
        except Exception as exc:  # a check that crashes is a failed check
            ok, message = False, f"{message}: {type(exc).__name__}: {exc}"
        self.check_s += clock() - start
        if not ok:
            self.fail(message)


class Client:
    """One keep-alive HTTP/1.1 connection; each call waits for its reply."""

    def __init__(self, address: str, rec: "Recorder | None" = None) -> None:
        host, port = address.rsplit("/", 1)[-1].split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=60)
        self.rec = rec

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = clock()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if self.rec is not None:
            self.rec.http_client_s += clock() - start
        return response.status, data

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# notebook
# ----------------------------------------------------------------------
class Notebook:
    """In-process replay of the Airbnb notebook under the shipped config.

    Sampling starts above 10k rows, so the frame is sampled; the replay
    exercises metadata, sampling, the shared-scan executor, scoring and the
    dataframe substrate, and none of vega-lite, the store or HTTP.
    """

    rows = 15_000

    def __init__(self, program: SimpleNamespace, seed: int) -> None:
        self.columns = inputs.listing_columns(self.rows, seed)
        self.cells = inputs.notebook_cells(program.LuxDataFrame, program.qcut)
        self.program = program
        self.reference: list[int] | None = None

    def _load_env(self) -> dict[str, Any]:
        # Copies, so in-place cells never reach the next replay's inputs.
        return {"columns": {k: v.copy() for k, v in self.columns.items()}}

    def _run_cell(self, body: Any, kind: str, env: dict[str, Any]) -> int | None:
        value = body(env)
        return hash(repr(value)) if kind != "code" else None

    def setup(self) -> Any:
        env = self._load_env()
        shown = [self._run_cell(body, kind, env) for _, kind, body in self.cells]
        if self.reference is None:
            self.reference = shown
        elif shown != self.reference:
            raise SetupError("notebook: a warm-up replay printed different output")
        return None

    def prepare(self, state: Any) -> None:
        pass

    def cycle(self, state: Any, rec: Recorder) -> None:
        env = self._load_env()
        changes: list[float] = []  # start of each write since the last print
        for i, (label, kind, body) in enumerate(self.cells):
            rec.attempted += 1
            before = self._cache_stats() if rec.tracer is not None else None
            start = clock()
            try:
                if rec.tracer is not None:
                    shown = rec.tracer.span(
                        "dataframe", "cell", lambda: self._run_cell(body, kind, env)
                    )
                else:
                    shown = self._run_cell(body, kind, env)
            except Exception as exc:
                rec.fail(f"cell {label!r}: {type(exc).__name__}: {exc}")
                return
            end = clock()
            rec.windows.append((start, end))
            if kind == "code":
                if label not in inputs.INSPECT_CELLS:
                    rec.samples["write"].append(end - start)
                    changes.append(start)
            else:
                rec.samples["read"].append(end - start)
                rec.samples["fresh"].extend(end - t for t in changes)
                changes.clear()
                rec.check(
                    lambda: shown == self.reference[i], f"cell {label!r} printed other output"
                )
            if before is not None:
                self._add_cache_delta(rec, before)

    def _cache_stats(self) -> dict[str, int]:
        return self.program.computation_cache.stats()

    def _add_cache_delta(self, rec: Recorder, before: dict[str, int]) -> None:
        # The cache sums its counters over live frames only, so a frame
        # dying inside a cell can make a delta negative: clamp at zero.
        after = self._cache_stats()
        for key in ("hits", "misses"):
            rec.cache[key] += max(0, after[key] - before[key])

    def finish(self, state: Any, rec: Recorder) -> None:
        pass

    def teardown(self, state: Any) -> None:
        pass

    def stats(self, state: Any) -> dict[str, dict[str, Any]]:
        return {"computation_cache": self._cache_stats(), "pool": self.program.pool.stats()}


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class _Http:
    """Shared set-up for the workloads that drive the ``/v1/`` routes."""

    rows: int
    session_config: dict[str, Any] | None = None

    def __init__(self, program: SimpleNamespace, seed: int) -> None:
        self.program = program
        self.columns = inputs.measure_columns(self.rows, seed)
        self.csv = inputs.to_csv(self.columns)

    def _start(self) -> SimpleNamespace:
        manager = self.program.SessionManager()
        server = self.program.make_server(manager, port=0).serve_background()
        st = SimpleNamespace(manager=manager, server=server, client=Client(server.address))
        body: dict[str, Any] = {"csv": self.csv}
        if self.session_config is not None:
            body["config"] = self.session_config
        status, data = st.client.call("POST", "/v1/sessions", json.dumps(body).encode())
        if status != 201:
            raise SetupError(f"session create answered {status}: {data[:200]!r}")
        st.sid = json.loads(data)["session"]
        st.recs_path = f"/v1/sessions/{st.sid}/recommendations"
        if not manager.engine.wait_idle(timeout=60):
            raise SetupError("the first pass never went idle")
        status, data = st.client.call("GET", st.recs_path)
        if status != 200:
            raise SetupError(f"first read answered {status}")
        return st

    def _warm_up(self, st: SimpleNamespace) -> None:
        rec = Recorder()
        self.cycle(st, rec)
        if rec.failed:
            raise SetupError(f"warm-up cycle failed: {rec.errors}")

    def teardown(self, st: SimpleNamespace) -> None:
        st.client.close()
        st.server.stop()
        st.manager.shutdown()

    def stats(self, st: SimpleNamespace) -> dict[str, dict[str, Any]]:
        return {
            "engine": st.manager.engine.stats(),
            "store": st.manager.store.stats(),
            "computation_cache": self.program.computation_cache.stats(),
            "pool": self.program.pool.stats(),
        }

    def _cold_actions(self, columns: dict[str, list[Any]], intent: list[str]) -> bytes:
        """In-process cold recomputation from CSV text, as JSON text."""
        frame = self.program.read_csv_string(
            inputs.to_csv(columns), frame_cls=self.program.LuxDataFrame
        )
        if intent:
            frame.intent = intent
        payloads = self.program.serialize_recommendations(frame.recommendations)
        return json.dumps(payloads).encode("utf-8")


class ColdRead(_Http):
    """Intent changes, each followed by a read that runs a foreground pass.

    The session disables precompute, so every read is an on-demand pass
    through the intent-driven actions and then vega-lite building and
    JSON encoding; nothing races the timed read.
    """

    rows = 500
    session_config = {"precompute": False}

    def setup(self) -> SimpleNamespace:
        st = self._start()
        st.intent_bodies = [
            json.dumps({"intent": intent}).encode() for intent in inputs.INTENT_CYCLE
        ]
        st.reference = None
        self._warm_up(st)
        return st

    def prepare(self, st: SimpleNamespace) -> None:
        st.reference = [self._cold_actions(self.columns, i) for i in inputs.INTENT_CYCLE]

    def cycle(self, st: SimpleNamespace, rec: Recorder) -> None:
        st.client.rec = rec
        for i, body in enumerate(st.intent_bodies):
            rec.attempted += 1
            try:
                t0 = clock()
                s_write, _ = st.client.call("POST", f"/v1/sessions/{st.sid}/intent", body)
                t1 = clock()
                s_read, data = st.client.call("GET", st.recs_path)
                t2 = clock()
            except (OSError, http.client.HTTPException) as exc:
                rec.fail(f"intent {i}: {type(exc).__name__}: {exc}")
                continue
            rec.windows.append((t0, t2))
            rec.samples["write"].append(t1 - t0)
            rec.samples["read"].append(t2 - t1)
            rec.samples["fresh"].append(t2 - t0)
            rec.http_reads += 1
            rec.read_bytes += len(data)
            rec.check(
                lambda: s_write == 200 and s_read == 200
                and envelope(data)[1]["origin"] == "foreground"
                and (st.reference is None or same_actions(data, st.reference[i])),
                f"intent {i}: read differs from a cold recomputation",
            )

    def finish(self, st: SimpleNamespace, rec: Recorder) -> None:
        pass


class EditRead(_Http):
    """Column edits, each waited out until its background pass is stored.

    Each edit reverses one column's values; the client waits for the
    engine's idle state in-process, then reads.  Reads are store hits that
    re-encode the whole payload; passes are incremental, so planning,
    candidate carry and store carry all run.
    """

    rows = 2_000

    def setup(self) -> SimpleNamespace:
        st = self._start()
        # Pre-encoded bodies: [reverse of the original, the original].
        st.bodies = {
            name: [
                json.dumps({"column": name, "values": self.columns[name][::-1]}).encode(),
                json.dumps({"column": name, "values": self.columns[name]}).encode(),
            ]
            for name in inputs.EDIT_CYCLE
        }
        st.reversed = {name: False for name in inputs.EDIT_CYCLE}
        st.last_body = b""
        self._warm_up(st)
        return st

    def prepare(self, st: SimpleNamespace) -> None:
        pass

    def cycle(self, st: SimpleNamespace, rec: Recorder) -> None:
        st.client.rec = rec
        for name in inputs.EDIT_CYCLE:
            rec.attempted += 1
            body = st.bodies[name][int(st.reversed[name])]
            try:
                t0 = clock()
                s_write, info = st.client.call("POST", f"/v1/sessions/{st.sid}/mutate", body)
                t1 = clock()
                idle = st.manager.engine.wait_idle(timeout=60)
                t2 = clock()
                s_read, data = st.client.call("GET", st.recs_path)
                t3 = clock()
            except (OSError, http.client.HTTPException) as exc:
                rec.fail(f"edit {name}: {type(exc).__name__}: {exc}")
                continue
            st.reversed[name] = not st.reversed[name]
            rec.windows.append((t0, t3))
            rec.samples["write"].append(t1 - t0)
            rec.samples["fresh"].append(t2 - t0)
            rec.samples["read"].append(t3 - t2)
            rec.http_reads += 1
            rec.read_bytes += len(data)
            st.last_body = data
            rec.check(
                lambda: idle and s_write == 200 and s_read == 200
                and self._served(json.loads(info), *envelope(data)),
                f"edit {name}: read is not the stored pass of the edit's version",
            )

    @staticmethod
    def _served(info: dict[str, Any], version: list[int], provenance: dict[str, Any]) -> bool:
        return version == info["data_version"] and provenance["origin"] in STORE_ORIGINS

    def finish(self, st: SimpleNamespace, rec: Recorder) -> None:
        columns = {
            name: values[::-1] if st.reversed.get(name) else values
            for name, values in self.columns.items()
        }
        rec.check(
            lambda: same_actions(st.last_body, self._cold_actions(columns, [])),
            "final payload differs from a cold recomputation",
        )


WORKLOADS = {"notebook": Notebook, "cold_read": ColdRead, "edit_read": EditRead}
