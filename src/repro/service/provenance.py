"""Typed provenance envelope for recommendation responses.

One :class:`Provenance` object describes where a response's results came
from — per pass, per action, and (for candidate-level partial reruns) per
vis.  It is the single source of truth for freshness metadata: the legacy
(unprefixed) HTTP surface renders it as the historical ``freshness`` dict
(byte-identical to what ad-hoc construction produced, so existing clients
and the load harness's identity gates see no change), while the ``/v1/``
surface serializes the full typed shape via :meth:`Provenance.to_payload`.

Because the envelope is built where the response is built (inside the
worker in shard mode) and crosses the shard RPC inside the pre-serialized
``payload_json`` passthrough, the wire bytes are identical whether a
response was produced in-process or behind the supervisor — the property
the golden wire-shape test pins.

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

import time
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["ActionProvenance", "Provenance"]


@dataclass(frozen=True)
class ActionProvenance:
    """Provenance of one action's payload within a response.

    ``vis`` refines a ``mixed`` action to per-vis granularity: a map from
    each displayed candidate's ``key`` (see
    :func:`~repro.vis.spec.candidate_key`, echoed in the spec payload) to
    its own origin.  None means every vis shares ``origin``.
    """

    origin: str
    vis: "dict[str, str] | None" = None

    def to_payload(self) -> dict[str, Any]:
        return {"origin": self.origin, "vis": self.vis}


@dataclass(frozen=True)
class Provenance:
    """Where one recommendation response's results came from."""

    origin: str
    computed_at: "float | None"
    data_version: int
    intent_epoch: int
    actions: "dict[str, ActionProvenance]"

    @staticmethod
    def build(
        version: "tuple[int, int]",
        payloads: Mapping[str, Any],
        origin: str,
        computed_at: "float | None" = None,
        origins: "Mapping[str, str] | None" = None,
        vis_origins: "Mapping[str, dict[str, str]] | None" = None,
    ) -> "Provenance":
        """Assemble the envelope from the read path's raw ingredients."""
        actions = {
            name: ActionProvenance(
                origins.get(name, origin) if origins else origin,
                vis_origins.get(name) if vis_origins else None,
            )
            for name in payloads
        }
        return Provenance(
            origin=origin,
            computed_at=computed_at,
            data_version=version[0],
            intent_epoch=version[1],
            actions=actions,
        )

    def to_payload(self) -> dict[str, Any]:
        """The ``/v1/`` wire shape (pinned by the golden wire-shape test)."""
        return {
            "origin": self.origin,
            "computed_at": self.computed_at,
            "data_version": self.data_version,
            "intent_epoch": self.intent_epoch,
            "actions": {
                name: ap.to_payload() for name, ap in self.actions.items()
            },
        }

    def legacy_freshness(self) -> dict[str, Any]:
        """The historical ``freshness`` dict, shape-frozen for old clients.

        Must stay byte-identical to what the pre-envelope code emitted:
        the unprefixed routes' identity gates compare these bytes across
        load conditions.
        """
        return {
            "origin": self.origin,
            "age_s": round(time.time() - (self.computed_at or time.time()), 3),
            "actions": {name: ap.origin for name, ap in self.actions.items()},
        }
