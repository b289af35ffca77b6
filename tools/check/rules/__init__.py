"""Rule registry: one instance per rule, in reporting order."""

from .action_keys import ActionKeysRule
from .config_mutation import ConfigMutationRule
from .guarded_by import GuardedByRule, ResultUnderLockRule
from .mutation_delta import MutationDeltaRule
from .one_writer import OneWriterRule
from .route_auth import RouteAuthRule
from .sql_hygiene import SqlHygieneRule
from .telemetry_hygiene import TelemetryHygieneRule
from .unstable_key import UnstableKeyRule

ALL_RULES = [
    GuardedByRule(),
    ResultUnderLockRule(),
    MutationDeltaRule(),
    ActionKeysRule(),
    ConfigMutationRule(),
    SqlHygieneRule(),
    UnstableKeyRule(),
    RouteAuthRule(),
    TelemetryHygieneRule(),
    OneWriterRule(),
]

__all__ = ["ALL_RULES"]
