"""Keying decisions for recommendation actions.

The precompute engine enumerates a keyed action's candidates once per
pass, keys each one by its spec's fields and filter attributes, and
reruns only the candidates whose key changed (``Action.keyed``).
``Action`` itself says False (rerun whole), but every concrete subclass
must decide: it sets ``keyed`` itself or inherits it from an ancestor
below ``Action``.  Silently inheriting the base's answer would make the
engine rerun the action on every pass, and that cost must be a visible,
reviewed decision, not an accident of omission.

A keyed action runs through ``generate_cached`` on the candidates the
engine enumerated, bypassing ``generate()``.  So a class whose own body
overrides ``generate()`` must set ``keyed = False`` in that same body,
and a class that sets ``keyed`` to anything but False must not inherit a
``generate()`` override from an ancestor below ``Action``.

Classes with their own abstract methods are treated as bases and skipped.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Project, SourceModule, Violation, expr_key

ABSTRACT_DECORATORS = {"abstractmethod", "abstractproperty"}


def _is_abstract(classdef: ast.ClassDef) -> bool:
    for stmt in classdef.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                key = expr_key(decorator)
                if key and key.rsplit(".", 1)[-1] in ABSTRACT_DECORATORS:
                    return True
    return False


def _keyed_value(classdef: ast.ClassDef) -> "ast.expr | None":
    """The value the class body assigns to ``keyed``, if it assigns one."""
    for stmt in classdef.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "keyed" for target in stmt.targets
        ):
            return stmt.value
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "keyed"
            and stmt.value is not None
        ):
            return stmt.value
    return None


def _is_false(value: "ast.expr | None") -> bool:
    return isinstance(value, ast.Constant) and value.value is False


def _defines(classdef: ast.ClassDef, name: str) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name
        for stmt in classdef.body
    )


class ActionKeysRule:
    id = "action-keys"
    summary = (
        "concrete Action subclasses must set or inherit keyed below Action, "
        "and a generate() override needs keyed = False"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterable[Violation]:
        out: list[Violation] = []
        for classdef in module.class_defs():
            name = classdef.name
            if name == "Action" or not project.derives_from(name, "Action"):
                continue
            if _is_abstract(classdef):
                continue

            def report(message: str) -> None:
                out.append(
                    Violation(
                        self.id, module.display, classdef.lineno, classdef.col_offset, message
                    )
                )

            value = _keyed_value(classdef)
            if not project.inherits_member(name, "keyed", stop="Action"):
                report(
                    f"action '{name}' neither sets nor inherits keyed below "
                    "Action; the incremental engine would silently rerun it "
                    "on every pass"
                )
            elif _defines(classdef, "generate") and not _is_false(value):
                report(
                    f"action '{name}' overrides generate() but does not set "
                    "keyed = False in its own body; the engine would bypass "
                    "the override"
                )
            elif (
                value is not None
                and not _is_false(value)
                and project.inherits_member(name, "generate", stop="Action")
            ):
                report(
                    f"action '{name}' sets keyed but inherits a generate() "
                    "override; the engine would bypass the override"
                )
        return out
