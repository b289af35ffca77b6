"""JSON wire encoding: each payload is encoded once, responses are spliced.

Recommendation payloads are the service's bulk bytes (megabytes of inline
vega-lite data per pass).  They are written exactly once: the vega-lite
writer (:func:`~repro.vis.vegalite.spec_payload`) writes each displayed
spec's bytes straight from its column table, and a pass joins each
action's bytes from its specs' bytes (:func:`encode_action`) before it
stores them in the :class:`~repro.service.store.ResultStore`.  A
background pass writes only the specs it recomputed and reuses the stored
bytes of the rest.  Every later consumer — the HTTP response, the shard
RPC frame, the snapshot results file — carries those bytes through
instead of re-encoding decoded dicts on every read.

:func:`pieces` is the one response writer: ``json.dumps`` with the
default settings, except that a ``bytes`` value is taken as already
encoded JSON and spliced in verbatim.  Because the writer's bytes equal
``json.dumps`` of the same values, a spliced response is byte-identical
to ``json.dumps`` of the fully decoded response.  It walks the response
once into a flat list of byte pieces and holds each stored payload by
reference, so building a response copies no stored byte.  The HTTP
handler sends the pieces as they are; only the shard RPC frame joins
them, once.  :func:`dumps` is that join.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["dumps", "encode", "encode_action", "pieces"]


def encode(value: Any) -> bytes:
    """``value`` as JSON bytes with the wire's ``json.dumps`` defaults."""
    return json.dumps(value).encode("utf-8")


def encode_action(count: int, specs: list) -> "tuple[bytes, list[memoryview]]":
    """One action payload's JSON bytes, joined from its specs' JSON bytes.

    The result equals :func:`encode` of ``{"count": count, "specs": [...]}``
    over the decoded specs (the action shape
    :func:`~repro.service.session.serialize_recommendations` decodes).
    It is built with one join, so each spec's bytes are copied once, and
    each spec's slice of the result is returned with it.
    """
    head = b'{"count": %d, "specs": [' % count
    parts = [head]
    bounds = []
    at = len(head)
    for i, spec in enumerate(specs):
        if i:
            parts.append(b", ")
            at += 2
        parts.append(spec)
        bounds.append((at, at + len(spec)))
        at += len(spec)
    parts.append(b"]}")
    blob = b"".join(parts)
    view = memoryview(blob)
    return blob, [view[start:end] for start, end in bounds]


def pieces(value: Any) -> "list[bytes]":
    """``value``'s JSON as byte pieces, splicing ``bytes`` values in as pre-encoded JSON.

    Only dicts that hold raw bytes (directly or in a nested dict) are
    walked in Python; every other subtree is one ``json.dumps`` call.
    Each ``bytes`` value is a piece by reference.  Dict keys must be
    strings.
    """
    if isinstance(value, bytes):
        return [value]
    out: list[bytes] = []
    _splice(value, out)
    return out


def dumps(value: Any) -> bytes:
    """:func:`pieces` joined: the only copy of the spliced bytes."""
    return b"".join(pieces(value))


def _splice(value: Any, pieces: "list[bytes]") -> None:
    """Append ``value``'s JSON to ``pieces``; ``bytes`` go in by reference."""
    if isinstance(value, bytes):
        pieces.append(value)
    elif isinstance(value, dict) and _holds_raw(value):
        separator = b"{"
        for key, item in value.items():
            pieces.append(b"%s%s: " % (separator, encode(key)))
            _splice(item, pieces)
            separator = b", "
        pieces.append(b"}")
    else:
        pieces.append(encode(value))


def _holds_raw(value: dict) -> bool:
    return any(
        isinstance(item, bytes) or (isinstance(item, dict) and _holds_raw(item))
        for item in value.values()
    )
