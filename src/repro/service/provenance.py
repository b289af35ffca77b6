"""The ``provenance`` envelope of recommendation responses.

:func:`envelope` describes where a response's results came from — per
pass, per action, and (for candidate-level partial reruns) per vis.  It
is built where the response is built (inside the worker in shard mode)
and crosses the shard RPC inside the pre-serialized ``payload_json``
passthrough, so the wire bytes are identical whether a response was
produced in-process or behind the supervisor — the property the golden
wire-shape test pins.

Origin vocabulary
-----------------
``precompute``
    Computed by a background pass at this exact version.
``foreground``
    Computed synchronously on the read path.
``carried``
    Not recomputed: the action's content key (the inputs of every one of
    its candidates) matched the previous pass, so that pass's stored
    result was reused as is (bit-identical by construction).
``mixed``
    Heterogeneous children — a pass combining recomputed and carried
    actions, or a recomputed action some of whose displayed vis were
    reused from the previous pass (its per-vis map marks them
    ``carried``).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["envelope"]


def envelope(
    version: "tuple[int, int]",
    payloads: Mapping[str, Any],
    origin: str,
    computed_at: "float | None" = None,
    origins: "Mapping[str, str] | None" = None,
    vis_origins: "Mapping[str, dict[str, str]] | None" = None,
) -> dict[str, Any]:
    """The ``provenance`` dict of a response over ``payloads``.

    ``origins`` overrides ``origin`` per action.  ``vis_origins`` refines
    a ``mixed`` action to per-vis granularity: a map from each displayed
    candidate's ``key`` (see :func:`~repro.vis.spec.candidate_key`,
    echoed in the spec payload) to its own origin; an action without one
    reports ``"vis": None`` (every vis shares the action's origin).
    """
    return {
        "origin": origin,
        "computed_at": computed_at,
        "data_version": version[0],
        "intent_epoch": version[1],
        "actions": {
            name: {
                "origin": origins.get(name, origin) if origins else origin,
                "vis": vis_origins.get(name) if vis_origins else None,
            }
            for name in payloads
        },
    }
