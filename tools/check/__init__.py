"""Repo-specific static analysis (``python -m tools.check``).

Enforces the concurrency and invariant contracts the codebase depends on
but no general-purpose linter knows about: guarded-by lock discipline,
mutation-delta completeness, action keying decisions, overlay-only
config mutation, SQL string hygiene, unstable identity keying, and route
authentication.  See ``tools/check/README.md`` for the rule catalogue and
the annotation/suppression conventions.
"""

from .engine import Report, Violation, run_paths

__all__ = ["Report", "Violation", "run_paths"]
