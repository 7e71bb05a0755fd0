"""Structural validation of trees.

A tree must be acyclic and each node must appear exactly once (no shared
subtrees); :func:`validate_tree` fails fast on a node graph that breaks
either rule.
"""

from __future__ import annotations

from repro.errors import TreeFormatError
from repro.tree.node import Tree

__all__ = ["validate_tree"]


def validate_tree(tree: Tree) -> None:
    """Raise :class:`TreeFormatError` if ``tree`` shares or repeats nodes.

    A well-formed tree visits every node exactly once in preorder; a node
    reachable twice means the children lists alias each other (a DAG, not a
    tree) which would silently corrupt edit operations and TED values.
    """
    seen: set[int] = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        ident = id(node)
        if ident in seen:
            raise TreeFormatError(
                f"node {node.label!r} is reachable more than once: "
                "the structure is a DAG, not a tree"
            )
        seen.add(ident)
        stack.extend(node.children)
