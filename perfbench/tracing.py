"""Outside-in per-layer tracing for ``--trace 1`` runs.

Wrappers are installed from here onto each layer's public entry points,
where their callers look them up (``compute_metadata`` as imported into
``repro.core.frame`` and ``repro.core.vis``, ``pool.submit`` on the module
its callers import, methods on their defining class).  The program itself
carries no benchmark spans.

Each wrapper records one span: layer, label, start, end, self time, its
id, its parent's id on the same thread (-1 for none) and the thread.  Self
time is the duration minus the time of spans nested under it on the same
thread.  Spans stay in memory; the run reduces them to per-layer metrics
and writes them out when it ends.
A target that a later version of the program no longer has is skipped and
named in ``missing``; its layer then reads 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable

_clock = time.perf_counter


def _origin(response: Any) -> str:
    if not isinstance(response, dict):
        return ""
    envelope = response.get("provenance") or response.get("freshness") or {}
    return str(envelope.get("origin", ""))


class Tracer:
    def __init__(self) -> None:
        self.active = False
        #: (layer, label, start, end, self_s, id, parent_id, thread), on exit.
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, by: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += by

    def span(self, layer: str, label: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside a span (the harness's own cell spans)."""
        return self._wrap(fn, layer, label)()

    def _wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        label: str,
        count: "Callable[[tuple], dict[str, int]] | None" = None,
        result: "Callable[[Any], dict[str, int]] | None" = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1][2] if stack else -1
            frame = [_clock(), 0.0, next(tracer._ids)]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((
                    layer, label, frame[0], end, duration - frame[1],
                    frame[2], parent, threading.get_ident(),
                ))
            extra = {}
            if count is not None:
                extra.update(count(args))
            if result is not None:
                extra.update(result(out))
            for name, by in extra.items():
                tracer.count(name, by)
            return out

        return traced

    # ------------------------------------------------------------------
    def _patch(self, module: str, path: str, make: Callable[[Any], Any]) -> None:
        try:
            owner: Any = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap(self, module: str, path: str, layer: str, label: str, **hooks: Any) -> None:
        self._patch(module, path, lambda fn: self._wrap(fn, layer, label, **hooks))

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per process)."""
        if self._undo:
            return
        columns = lambda args: {"metadata.columns": len(args[0].columns)}  # noqa: E731
        self.wrap("repro.service.shard", "read_csv_string", "dataframe", "csv_parse")
        for module in ("repro.core.frame", "repro.core.vis"):
            self.wrap(module, "compute_metadata", "metadata", "compute", count=columns)
        self.wrap("repro.core.frame", "refresh_metadata", "metadata", "refresh", count=columns)
        self._patch(
            "repro.core.metadata", "compute_attribute_meta", self._counted("metadata.rescans")
        )

        self._wrap_candidates()
        for module in ("repro.core.frame", "repro.service.precompute"):
            self.wrap(module, "run_actions", "optimizer", "run_actions")
        for module in ("repro.core.actions.base", "repro.core.optimizer.sampling"):
            self.wrap(module, "rank_candidates", "optimizer", "rank")
        self.wrap("repro.core.optimizer.sampling", "get_sample", "optimizer", "sample")

        specs = lambda args: {"executor.specs": len(args[1])}  # noqa: E731
        self.wrap("repro.core.executor.df_exec", "DataFrameExecutor.execute_many",
                  "executor", "execute", count=specs)
        self.wrap("repro.core.executor.df_exec", "DataFrameExecutor.execute",
                  "executor", "execute", count=lambda args: {"executor.specs": 1})
        for module in ("repro.core.optimizer.sampling", "repro.core.interestingness"):
            self.wrap(module, "score_vis", "interestingness", "score")
        self._patch("repro.core.pool", "submit", self._queue_timed)

        self.wrap("repro.service.session", "spec_payload", "vis", "encode")
        served = lambda out: {  # noqa: E731
            "session.reads": 1,
            "session.store_reads": int(_origin(out) not in ("", "foreground")),
        }
        self.wrap(
            "repro.service.session", "Session.recommendations", "session", "read", result=served
        )
        self.wrap("repro.service.session", "Session.mutate", "session", "write")
        self.wrap("repro.service.session", "Session.set_intent", "session", "write")
        for module in ("repro.service.session", "repro.service.precompute"):
            self.wrap(module, "serialize_recommendations", "session", "serialize")
        self.wrap("repro.service.precompute", "PrecomputeEngine._run_pass", "precompute", "pass")
        for method in ("put", "put_pass", "carry"):
            self.wrap("repro.service.store", f"ResultStore.{method}", "store", "put")
        for method in ("get", "get_pass"):
            self.wrap("repro.service.store", f"ResultStore.{method}", "store", "get")
        for method in ("do_GET", "do_POST"):
            self.wrap("repro.service.http_api", f"_Handler.{method}", "http", "handler")
        self.wrap("repro.service.http_api", "_Handler._send", "http", "send")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: "Any", spans: list[tuple]) -> None:
        """Write ``spans`` as JSON lines, times in seconds from the first."""
        origin = min((s[2] for s in spans), default=0.0)
        fields = ("layer", "label", "start", "end", "self", "id", "parent", "thread")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                row = dict(zip(fields, span))
                row["start"] -= origin
                row["end"] -= origin
                out.write(json.dumps(row) + "\n")

    def _counted(self, name: str) -> Callable[[Any], Any]:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                self.count(name)
                return fn(*args, **kwargs)

            return counted

        return make

    def _queue_timed(self, submit: Callable[..., Any]) -> Callable[..., Any]:
        """``pool.submit`` that records each item's wait from push to start."""

        @functools.wraps(submit)
        def timed_submit(fn: Callable[[], Any], *args: Any, **kwargs: Any) -> Any:
            pushed = _clock()

            def run() -> Any:
                self.count("pool.wait_ns", int((_clock() - pushed) * 1e9))
                return fn()

            return submit(run, *args, **kwargs)

        return timed_submit

    def _wrap_candidates(self) -> None:
        """Wrap ``candidates`` on each registered action's defining class."""
        try:
            registry = importlib.import_module("repro.core.actions.registry").default_registry
            actions = list(registry)
        except (ImportError, AttributeError, TypeError):
            self.missing.append("repro.core.actions.registry.default_registry")
            return
        done: set[type] = set()
        for action in actions:
            owner = next(
                (k for k in type(action).__mro__ if "candidates" in vars(k)), None
            )
            if owner is None or owner in done:
                continue
            done.add(owner)
            original = vars(owner)["candidates"]
            listed = lambda out: {"actions.candidates": len(out or ())}  # noqa: E731
            setattr(owner, "candidates",
                    self._wrap(original, "actions", "enumerate", result=listed))
            self._undo.append(lambda o=owner, f=original: setattr(o, "candidates", f))


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def _covered(windows: list[tuple[float, float]], spans: list[tuple[float, float]]) -> float:
    """Total length of ``windows`` covered by the union of ``spans``."""
    spans = sorted(spans)
    merged: list[list[float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    j = 0
    for ws, we in sorted(windows):
        while j < len(merged) and merged[j][1] <= ws:
            j += 1
        k = j
        while k < len(merged) and merged[k][0] < we:
            total += max(0.0, min(we, merged[k][1]) - max(ws, merged[k][0]))
            k += 1
    return total


def in_window(spans: list[tuple], start: float, end: float) -> list[tuple]:
    return [s for s in spans if start <= s[2] < end]


def self_ms(spans: list[tuple], layer: str, label: str | None = None) -> float:
    return 1e3 * sum(
        s[4] for s in spans if s[0] == layer and (label is None or s[1] == label)
    )


def duration_ms(spans: list[tuple], layer: str, label: str | None = None) -> float:
    return 1e3 * sum(
        s[3] - s[2] for s in spans if s[0] == layer and (label is None or s[1] == label)
    )


def n_spans(spans: list[tuple], layer: str, label: str | None = None) -> int:
    return sum(1 for s in spans if s[0] == layer and (label is None or s[1] == label))


def unattributed(spans: list[tuple], windows: list[tuple[float, float]]) -> float:
    """Share of operation wall time that no program-layer span covers."""
    wall = sum(e - s for s, e in windows)
    if wall <= 0:
        return 0.0
    return 1.0 - _covered(windows, [(s[2], s[3]) for s in spans]) / wall
