"""Dataset files: one bracket-notation tree per line, optionally gzipped.

The format interoperates with the RTED/APTED tool family and keeps the
whole collection greppable.  Lines starting with ``#`` are comments (the
writers emit a header recording provenance), blank lines are skipped.
Readers split lines at ``\\n``, ``\\r`` and ``\\r\\n``, so a tree with
either character in a label cannot be stored: :func:`save_trees` refuses
it before writing anything.  Trees are read with
:func:`~repro.tree.bracket.read_bracket` (``Tree.from_bracket``), so
they hold their text and no nodes (see :mod:`repro.tree.node`).
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import TreeFormatError
from repro.tree.bracket import read_bracket
from repro.tree.node import Tree

__all__ = ["save_trees", "load_trees", "iter_trees"]


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trees(
    trees: Iterable[Tree],
    path: str | Path,
    comment: str | None = None,
) -> int:
    """Write a collection to ``path``; returns the number of trees written.

    A ``.gz`` suffix turns on transparent gzip compression.  A label
    holding ``\\n`` or ``\\r`` raises :class:`TreeFormatError` before
    anything is written.  The write is atomic (temp file + fsync +
    rename, :mod:`repro.persist.atomic`): a crash mid-write leaves the
    previous file intact instead of a silently truncated dataset that
    loads cleanly.
    """
    from repro.persist.atomic import replace_on_success

    path = Path(path)
    lines = []
    for position, tree in enumerate(trees):
        text = tree.to_bracket()
        if "\n" in text or "\r" in text:
            raise TreeFormatError(
                f"tree {position} has a line break in a label; a dataset "
                "file holds one tree per line and cannot store it"
            )
        lines.append(text)
    with replace_on_success(path) as tmp:
        # Compression is decided by the *final* suffix; the temp name is
        # meaningless by design.
        if path.suffix == ".gz":
            handle = gzip.open(tmp, "wt", encoding="utf-8")
        else:
            handle = open(tmp, "w", encoding="utf-8")
        with handle:
            if comment:
                for line in comment.splitlines():
                    handle.write(f"# {line}\n")
            for text in lines:
                handle.write(text)
                handle.write("\n")
    return len(lines)


def iter_trees(path: str | Path) -> Iterator[Tree]:
    """Stream trees from ``path`` one at a time (constant memory).

    Raises
    ------
    TreeFormatError
        On the first malformed line, with the line number in the message.
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield read_bracket(line)
            except TreeFormatError as exc:
                raise TreeFormatError(f"{path}:{lineno}: {exc}") from exc


def load_trees(path: str | Path) -> list[Tree]:
    """Read the whole collection into memory."""
    return list(iter_trees(path))
