"""One writer per HTTP handler.

In any class with a ``_resolve`` routing method (the dispatch table shape
``http_api._Handler`` uses, the one ``route-auth`` polices), only
``_send`` may write to the client: it owns the single vectored send of
status line, headers and body, the rule that a dead client gets no
second response, and the byte count ``_route`` observes.  Any other
method that builds or writes a response — ``send_response``,
``send_header``, ``end_headers``, ``flush_headers``, ``send_error``,
``self.wfile.write`` or a ``send*`` call on the socket — would bypass
all three.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Project, SourceModule, Violation, expr_key

#: ``self.<name>(...)`` calls that build or write a response.
RESPONSE_METHODS = {
    "send_response",
    "send_response_only",
    "send_header",
    "end_headers",
    "flush_headers",
    "send_error",
}

#: The handler's socket, under both of its names.
SOCKETS = {"self.connection", "self.request"}

WRITER = "_send"


class OneWriterRule:
    id = "one-writer"
    summary = (
        "in a class with a _resolve() routing table, only _send may write "
        "the response (send_response/headers/wfile/socket sends)"
    )

    def check(
        self, module: SourceModule, project: Project
    ) -> Iterable[Violation]:
        out: list[Violation] = []
        for classdef in module.class_defs():
            methods = [
                stmt
                for stmt in classdef.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            if not any(method.name == "_resolve" for method in methods):
                continue
            for method in methods:
                if method.name == WRITER:
                    continue
                for node in ast.walk(method):
                    written = _writes_response(node)
                    if written is None:
                        continue
                    out.append(
                        Violation(
                            self.id,
                            module.display,
                            node.lineno,
                            node.col_offset,
                            f"'{classdef.name}.{method.name}' calls "
                            f"'{written}()'; only {WRITER}() writes the "
                            "response (one send, disconnect handling, byte "
                            "count)",
                        )
                    )
        return out


def _writes_response(node: ast.AST) -> "str | None":
    """The dotted callee if ``node`` builds or writes a response."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    callee = expr_key(node.func)
    owner = expr_key(node.func.value)
    name = node.func.attr
    if owner == "self" and name in RESPONSE_METHODS:
        return callee
    if owner == "self.wfile" and name == "write":
        return callee
    if owner in SOCKETS and name.startswith("send"):
        return callee
    return None
