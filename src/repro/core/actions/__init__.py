"""Recommendation actions (Table 1) and the action registry."""

from .base import Action, KeyedCandidates
from .correlation import CorrelationAction
from .current import CurrentVisAction
from .enhance import EnhanceAction
from .filter_action import FilterAction
from .generalize import GeneralizeAction
from .history_based import PreAggregateAction, PreFilterAction
from .registry import (
    ActionRegistry,
    CustomAction,
    default_registry,
    register_action,
    remove_action,
)
from .structure import IndexAction
from .univariate import (
    DistributionAction,
    GeographicAction,
    OccurrenceAction,
    TemporalAction,
)

__all__ = [
    "Action",
    "ActionRegistry",
    "CorrelationAction",
    "CurrentVisAction",
    "CustomAction",
    "DistributionAction",
    "EnhanceAction",
    "FilterAction",
    "GeneralizeAction",
    "GeographicAction",
    "IndexAction",
    "KeyedCandidates",
    "OccurrenceAction",
    "PreAggregateAction",
    "PreFilterAction",
    "TemporalAction",
    "default_registry",
    "register_action",
    "remove_action",
]
