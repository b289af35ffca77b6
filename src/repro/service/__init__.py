"""The always-on recommendation service (multi-session server mode).

Turns the library into a server: sessions isolate analysts (own frame,
history, frozen config overlay), a background engine precomputes
recommendation passes on every mutation so results are ready *before* the
analyst looks, a byte-budgeted store of each session's latest pass makes
the read path a dictionary lookup, and a stdlib HTTP JSON API exposes the
whole thing.

Quickstart (in-process)::

    from repro.service import SessionManager

    manager = SessionManager()
    session = manager.create(frame, overrides={"top_k": 5})
    session.frame["derived"] = session.frame["a"] * 2   # triggers precompute
    manager.engine.wait_idle()
    response = session.recommendations()                # store hit: no executor
    assert response["provenance"]["origin"] == "precompute"

Quickstart (HTTP; the same response at ``/v1/``)::

    PYTHONPATH=src python -m repro.service.http_api --port 8080
    curl -X POST localhost:8080/v1/sessions -d '{"dataset": "hpi"}'
    curl localhost:8080/v1/sessions/<id>/recommendations
    curl localhost:8080/v1/healthz

Scaling out: ``--shards N`` (or ``config.service_shards``) serves the
same HTTP surface from N worker *processes*, sessions routed by a
consistent hash of the id; ``--snapshot-dir`` (or
``config.service_snapshot_dir``) persists per-session snapshots so
restarted workers come back warm.  See :mod:`repro.service.supervisor`
and :mod:`repro.service.persist`.
"""

from .http_api import ServiceServer, make_server
from .persist import SnapshotStore
from .precompute import PrecomputeEngine, QueueSaturated
from .session import Session, SessionManager, serialize_recommendations
from .shard import ShardService, WorkerUnreachable, shard_for
from .store import ResultStore
from .supervisor import Supervisor

__all__ = [
    "PrecomputeEngine",
    "QueueSaturated",
    "ResultStore",
    "ServiceServer",
    "Session",
    "SessionManager",
    "ShardService",
    "SnapshotStore",
    "Supervisor",
    "WorkerUnreachable",
    "make_server",
    "serialize_recommendations",
    "shard_for",
]
