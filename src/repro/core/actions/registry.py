"""Action registry (§7.2): default actions plus user-defined UDF actions.

Custom actions are plain Python functions wrapped into :class:`CustomAction`
via :func:`register_action`, triggered whenever their condition holds::

    def top_correlates(ldf): ...
    register_action("Influence", top_correlates,
                    condition=lambda ldf: "target" in ldf.columns)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..vislist import VisList
from .base import Action
from .correlation import CorrelationAction
from .current import CurrentVisAction
from .enhance import EnhanceAction
from .filter_action import FilterAction
from .generalize import GeneralizeAction
from .history_based import PreAggregateAction, PreFilterAction
from .structure import IndexAction
from .univariate import (
    DistributionAction,
    GeographicAction,
    OccurrenceAction,
    TemporalAction,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = [
    "ActionRegistry",
    "CustomAction",
    "default_registry",
    "register_action",
    "remove_action",
]


class CustomAction(Action):
    """Adapter turning a user UDF into an Action."""

    #: A UDF's inputs are opaque — it may read any column and the intent —
    #: so the incremental engine must rerun it on every change.  Stated
    #: explicitly rather than inherited silently (tools/check `action-keys`).
    keyed = False

    def __init__(
        self,
        name: str,
        generate_fn: Callable[["LuxDataFrame"], VisList],
        condition: Callable[["LuxDataFrame"], bool] | None = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.description = description or (generate_fn.__doc__ or "").strip()
        self._generate_fn = generate_fn
        self._condition = condition

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        if self._condition is None:
            return True
        return bool(self._condition(ldf))

    def candidates(self, ldf: "LuxDataFrame"):  # pragma: no cover - unused
        return []

    def generate(self, ldf: "LuxDataFrame") -> VisList:
        result = self._generate_fn(ldf)
        if not isinstance(result, VisList):
            raise TypeError(
                f"custom action {self.name!r} must return a VisList, "
                f"got {type(result).__name__}"
            )
        return result


class ActionRegistry:
    """Ordered collection of actions; order is the display (and FIFO) order."""

    def __init__(self, actions: list[Action] | None = None) -> None:
        self._actions: dict[str, Action] = {}
        for action in actions or []:
            self.register(action)

    def register(self, action: Action) -> None:
        self._actions[action.name] = action

    def register_udf(
        self,
        name: str,
        generate_fn: Callable[["LuxDataFrame"], VisList],
        condition: Callable[["LuxDataFrame"], bool] | None = None,
        description: str = "",
    ) -> None:
        self.register(CustomAction(name, generate_fn, condition, description))

    def remove(self, name: str) -> None:
        self._actions.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._actions

    def __iter__(self):
        return iter(self._actions.values())

    def __len__(self) -> int:
        return len(self._actions)

    def names(self) -> list[str]:
        return list(self._actions.keys())

    def applicable(self, ldf: "LuxDataFrame") -> list[Action]:
        out = []
        for action in self._actions.values():
            try:
                if action.applies_to(ldf):
                    out.append(action)
            except Exception:
                # A broken trigger must not take down the display (§10.3).
                continue
        return out


def _build_default_registry() -> ActionRegistry:
    return ActionRegistry(
        [
            CurrentVisAction(),
            CorrelationAction(),
            DistributionAction(),
            OccurrenceAction(),
            TemporalAction(),
            GeographicAction(),
            EnhanceAction(),
            FilterAction(),
            GeneralizeAction(),
            IndexAction(),
            PreAggregateAction(),
            PreFilterAction(),
        ]
    )


#: The process-wide registry used by every LuxDataFrame.
default_registry = _build_default_registry()


def register_action(
    name: str,
    generate_fn: Callable[["LuxDataFrame"], VisList],
    condition: Callable[["LuxDataFrame"], bool] | None = None,
    description: str = "",
) -> None:
    """Register a custom action globally (the paper's UDF mechanism)."""
    default_registry.register_udf(name, generate_fn, condition, description)


def remove_action(name: str) -> None:
    """Remove an action (default or custom) from the global registry."""
    default_registry.remove(name)
