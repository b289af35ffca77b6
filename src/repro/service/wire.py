"""JSON wire encoding: each payload is encoded once, responses are spliced.

Recommendation payloads are the service's bulk bytes (megabytes of inline
vega-lite data per pass).  They are encoded exactly once, when a pass
publishes into the :class:`~repro.service.store.ResultStore`
(:func:`encode`), and every later consumer — the HTTP response, the shard
RPC frame, the snapshot results file — carries those bytes through
instead of re-encoding the decoded dicts on every read.

:func:`dumps` is the one response writer: ``json.dumps`` with the
default settings, except that a ``bytes`` value is taken as already
encoded JSON and spliced in verbatim.  Because the stored bytes come from
the same ``json.dumps`` defaults, a spliced response is byte-identical to
``json.dumps`` of the fully decoded response.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["dumps", "encode"]


def encode(value: Any) -> bytes:
    """``value`` as JSON bytes with the wire's ``json.dumps`` defaults."""
    return json.dumps(value).encode("utf-8")


def dumps(value: Any) -> bytes:
    """Encode ``value``, splicing ``bytes`` values in as pre-encoded JSON.

    Only dicts that hold raw bytes (directly or in a nested dict) are
    walked in Python; every other subtree is one ``json.dumps`` call.
    Dict keys must be strings.
    """
    if isinstance(value, bytes):
        return value
    if isinstance(value, dict) and _holds_raw(value):
        return b"{%s}" % b", ".join(
            encode(key) + b": " + dumps(item) for key, item in value.items()
        )
    return encode(value)


def _holds_raw(value: dict) -> bool:
    return any(
        isinstance(item, bytes) or (isinstance(item, dict) and _holds_raw(item))
        for item in value.values()
    )
