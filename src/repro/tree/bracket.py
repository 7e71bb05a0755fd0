"""Bracket notation for trees, the interchange format of the TED community.

A tree is written as ``{label`` followed by the bracket forms of its children
and a closing ``}``.  For example ``{a{b}{c{d}}}`` is the tree rooted at
``a`` with children ``b`` and ``c``, where ``c`` has one child ``d``.  This
is the format used by the RTED/APTED reference implementations, which makes
datasets produced by this library interoperable with them.

Labels may contain any character; ``{``, ``}`` and ``\\`` are escaped with a
backslash.  A backslash before any other character is a needless escape:
``\\a`` reads as ``a``.  Whitespace around the root is ignored; anywhere
else outside a label it is an error.

The *canonical* text of a tree is what :func:`to_bracket` writes: nothing
around or between the brackets, and only the three metacharacters escaped.
Two trees are equal exactly when their canonical texts are.

Three functions read the format:

- :func:`read_bracket` (``Tree.from_bracket``), the reader every loader
  of trees uses, checks the text with a few regular-expression scans and
  one pass over its braces.  It builds no node: it records the node
  count and keeps the canonical text in the returned
  :class:`~repro.tree.node.Tree`.
- :func:`parse_bracket` is the node parser.  It walks the text one
  character at a time and builds the :class:`~repro.tree.node.TreeNode`
  graph.  A text tree's first ``Tree.root`` read runs it, and it names
  the fault of an invalid text: :func:`read_bracket` accepts exactly the
  strings it accepts, and raises its :class:`TreeFormatError`.
- :func:`bracket_nodes` splits canonical text into ``(label, closes)``
  pairs, one per node, for the one pass in which
  :class:`repro.core.treecache.TreeCache` builds a record from text.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import sub
from typing import Iterable

from repro.errors import TreeFormatError
from repro.tree.node import Tree, TreeNode

__all__ = [
    "parse_bracket",
    "parse_nodes",
    "read_bracket",
    "to_bracket",
    "write_nodes",
    "escape_label",
    "unescape_label",
    "bracket_nodes",
]

_SPECIAL = {"{", "}", "\\"}

# An escape: a backslash and the character it stands for.
_ESCAPE = re.compile(r"\\.", re.S)
# The same, split into the escapes canonical text keeps (group 1, a
# metacharacter's) and needless ones (group 2, the character alone).
_CANONICAL_ESCAPE = re.compile(r"(\\[{}\\])|\\(.)", re.S)
# A character outside every label: after a closing brace, before a brace.
_BETWEEN_SIBLINGS = re.compile(r"\}[^{}]")
_LABEL_TEXT = re.compile(r"[^{}]+")
_DEPTH_STEP = {"{": 1, "}": -1}.__getitem__
# A node: its opening brace, raw label (escapes intact) and the closing
# braces right after the label.
_NODE = re.compile(r"\{((?:[^{}\\]|\\.)*)(\}*)", re.S)


def escape_label(label: str) -> str:
    """Escape the bracket-notation metacharacters in ``label``."""
    if not any(ch in _SPECIAL for ch in label):
        return label
    return "".join("\\" + ch if ch in _SPECIAL else ch for ch in label)


def unescape_label(label: str) -> str:
    """Inverse of :func:`escape_label` (assumes a well-formed escape)."""
    if "\\" not in label:
        return label
    out: list[str] = []
    it = iter(label)
    for ch in it:
        if ch == "\\":
            ch = next(it, "")
        out.append(ch)
    return "".join(out)


def read_bracket(text: str) -> Tree:
    """Read one tree from bracket notation, keeping its canonical text.

    Builds no node.  Accepts exactly the strings :func:`parse_bracket`
    accepts; the tree's size, :meth:`~repro.tree.node.Tree.to_bracket`
    and nodes (parsed on the first ``root`` read) equal that parser's.

    Raises
    ------
    TreeFormatError
        :func:`parse_bracket`'s error for the same string.
    """
    text = text.strip()
    # With every escape masked, braces are structure and nothing else.
    masked = _ESCAPE.sub("_", text) if "\\" in text else text
    braces = _LABEL_TEXT.sub("", masked)
    if (
        masked[:1] != "{"
        or "\\" in masked  # a dangling escape at the end
        or _BETWEEN_SIBLINGS.search(masked)
        or 2 * braces.count("{") != len(braces)
        # One tree: the depth stays positive until the last brace.
        or min(accumulate(map(_DEPTH_STEP, braces[:-1]))) <= 0
    ):
        return parse_bracket(text)  # raises, naming the first fault
    if masked is not text:
        text = _CANONICAL_ESCAPE.sub(r"\1\2", text)
    return Tree._from_text(text, len(braces) // 2)


def parse_bracket(text: str) -> Tree:
    """Parse one tree from bracket notation into nodes.

    Raises
    ------
    TreeFormatError
        On unbalanced brackets, trailing garbage, an empty input, or a
        forest (multiple roots).
    """
    return Tree(parse_nodes(text))


def parse_nodes(text: str) -> TreeNode:
    """The node parser of :func:`parse_bracket`: the root node of ``text``."""
    text = text.strip()
    if not text:
        raise TreeFormatError("empty bracket string")
    if text[0] != "{":
        raise TreeFormatError(f"bracket string must start with '{{': {text[:40]!r}")

    root: TreeNode | None = None
    stack: list[TreeNode] = []
    label_chars: list[str] = []
    reading_label = False
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and reading_label:
            if i + 1 >= n:
                raise TreeFormatError("dangling escape at end of bracket string")
            label_chars.append(text[i + 1])
            i += 2
            continue
        if ch == "{":
            if reading_label:
                # Label ends where the first child starts.
                _finish_label(stack, label_chars)
            node = TreeNode("")
            if stack:
                stack[-1].add_child(node)
            elif root is None:
                root = node
            else:
                raise TreeFormatError("multiple roots: input is a forest, not a tree")
            stack.append(node)
            label_chars = []
            reading_label = True
        elif ch == "}":
            if not stack:
                raise TreeFormatError("unbalanced '}' in bracket string")
            if reading_label:
                _finish_label(stack, label_chars)
                reading_label = False
                label_chars = []
            stack.pop()
        else:
            if not reading_label:
                raise TreeFormatError(
                    f"unexpected character {ch!r} between siblings at offset {i}"
                )
            label_chars.append(ch)
        i += 1

    if stack:
        raise TreeFormatError("unbalanced '{' in bracket string")
    if root is None:
        raise TreeFormatError("no tree found in bracket string")
    return root


def _finish_label(stack: list[TreeNode], chars: list[str]) -> None:
    if not stack:  # pragma: no cover - guarded by callers
        raise TreeFormatError("label outside any tree node")
    stack[-1].label = "".join(chars)


def bracket_nodes(text: str) -> Iterable[tuple[str, int]]:
    """``(label, closes)`` per node of canonical bracket ``text``, in
    preorder: the node's unescaped label and the number of closing braces
    right after it.  A node with children has ``closes == 0``; a leaf's
    first closing brace is its own, and each further one closes its next
    open ancestor."""
    if "\\" not in text:
        segments = text.split("{")
        del segments[0]  # the empty text before the root's brace
        labels = [segment.rstrip("}") for segment in segments]
        return zip(labels, map(sub, map(len, segments), map(len, labels)))
    return [
        (unescape_label(raw), len(closes))
        for raw, closes in _NODE.findall(text)
    ]


def to_bracket(tree: Tree) -> str:
    """Serialize ``tree`` to canonical bracket notation (inverse of
    :func:`read_bracket` and :func:`parse_bracket`)."""
    return tree.to_bracket()


def write_nodes(root: TreeNode) -> str:
    """The canonical bracket text of the tree below ``root``."""
    parts: list[str] = []
    # Explicit stack: each entry is either a node to open or the CLOSE marker.
    close = object()
    stack: list[object] = [root]
    while stack:
        item = stack.pop()
        if item is close:
            parts.append("}")
            continue
        node: TreeNode = item  # type: ignore[assignment]
        parts.append("{")
        parts.append(escape_label(node.label))
        stack.append(close)
        for child in reversed(node.children):
            stack.append(child)
    return "".join(parts)
