"""Shared rule plumbing: the base class and scope constants."""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import FileContext, Finding, Project

__all__ = [
    "Rule",
    "DETERMINISM_SCOPE",
    "CLOCK_EXEMPT",
    "call_name",
    "is_id_call",
]

# Packages whose code must be bit-identical across worker counts and
# processes — the determinism rule's jurisdiction.
DETERMINISM_SCOPE = frozenset({"core", "parallel", "stream", "ted"})

# Directories where reading the wall clock is legitimate: observability
# stamps export timestamps, benchmarks report when they ran.
CLOCK_EXEMPT = frozenset({"obs", "bench", "benchmarks"})


class Rule:
    """One invariant.  Subclasses set ``id``/``summary`` and implement
    :meth:`check_file` (per-file AST walk) and/or :meth:`check_project`
    (cross-module checks over every scanned file)."""

    id: str = ""
    summary: str = ""
    #: How to silence one deliberate violation (shown by --list-rules).
    suppression = "# repro: allow[<rule-id>] <why>"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(ctx.display, getattr(node, "lineno", 1), self.id, message)


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee, best effort (``""`` when dynamic)."""
    parts: list[str] = []
    cursor = node.func
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return ".".join(reversed(parts))
    return ""


def is_id_call(node: ast.AST) -> bool:
    """Whether ``node`` is a call to the builtin ``id``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )
