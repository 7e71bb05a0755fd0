"""String edit distance, plain and under a threshold, with one optimal alignment.

Under unit costs, the edit distance of two trees' preorder (or postorder)
label sequences is a lower bound on their tree edit distance (Guha et
al., "Approximate XML Joins", SIGMOD 2002, [13] in the paper): a tree
mapping restricted to either traversal is a string alignment of the same
cost.  A similarity join only needs to know whether that distance exceeds
``tau``, so one threshold kernel serves two callers:

- :func:`string_edit_within` — the STR baseline's candidate filter and
  the verifier's postorder bound;
- :func:`string_edit_alignment` — the same kernel, its levels kept and
  traced back to one optimal alignment.  The verifier aligns two preorder
  sequences this way and, when the aligned nodes also keep postorder
  order, takes the distance as the exact TED (see
  :class:`repro.baselines.common.Verifier`).

The kernel is Landau and Vishkin's furthest-reaching diagonals.
``L[e][d]`` is the last row ``i`` of diagonal ``d = j - i`` whose DP cell
``(i, j)`` is within ``e`` edits.  A cell is never smaller than the one
before it on its diagonal, so the cells within ``e`` edits are a prefix
of the diagonal.  ``L[e][d]`` is the furthest of ``L[e - 1]`` at ``d``
(rename), ``d + 1`` (delete) and ``d - 1`` (insert), stepped once, then
slid along the equal symbols that follow.  The distance is the first
``e`` with ``L[e][t] = len(a)``, where ``t = len(b) - len(a)``.  Ukkonen's
cutoff computes only the diagonals with ``|t - d| <= tau - e``: from any
other, the end is more than the edits left away.  The three predecessors
of a computed diagonal pass the cutoff one level down, so every computed
entry is exact.  At most ``(tau + 1)**2`` slides run, and the first one
is the common prefix.

A slide is one lookup on two *codes*: a sequence as one integer, 32 bits
per symbol, symbol ``k`` at bit ``32 * k``.  The equal run forward from
``(i, j)`` ends at the lowest set bit of ``(A >> 32i) ^ (B >> 32j)``; the
run backward from ``(i, j)`` ends at the highest set bit of the two
prefixes, aligned at their ends.  Each is a shift, an XOR and
``bit_length`` at C speed.  Both runs are clamped to the symbols left,
so a symbol coded 0 (label id 0, ``""``) is never mistaken for the zero
bits past an end.  Label ids are their own codes (all below ``2**21``,
:mod:`repro.core.intern`), and each
:class:`~repro.core.treecache.TreeCache` keeps the code of both its
traversals.  The public functions take plain sequences and number their
symbols in one table shared by both, so two codes are equal exactly when
their symbols are ``==``.

The alignment is the one the full DP's traceback finds when it starts at
the last cell and prefers the diagonal step, then deleting from ``a``,
then inserting from ``b`` (the order of the banded DP this kernel
replaced, so the verifier certifies the same pairs).  The traceback reads
only ``D(i, j)``, the first ``e`` with ``L[e][j - i] >= i``.  On equal
symbols the diagonal step costs nothing, so one backward lookup takes the
whole run.  At a mismatch in a cell of ``e`` edits, each step in order is
taken if its cell is within ``e - 1`` edits: one comparison with
``L[e - 1]``.  Such a cell lies on an optimal path, which keeps to the
cutoff, so its entry was computed.

Sequences are sequences of hashable symbols (labels), not just characters.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Optional, Sequence

__all__ = ["string_edit_distance", "string_edit_within", "string_edit_alignment"]

# The array typecode of 32-bit unsigned ints, which hold one symbol each.
_UINT32 = next(code for code in "IL" if array(code).itemsize == 4)


def string_edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Classic Levenshtein distance with unit costs, ``O(len(a)*len(b))``.

    >>> string_edit_distance("kitten", "sitting")
    3
    """
    if len(a) < len(b):  # iterate over the longer one, keep the row short
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, sym_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, sym_b in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,  # delete sym_a
                current[j - 1] + 1,  # insert sym_b
                previous[j - 1] + (sym_a != sym_b),  # match / substitute
            )
        previous = current
    return previous[-1]


def sequence_code(symbols: Iterable[int]) -> int:
    """The code of a sequence of ints in ``[0, 2**32)``: symbol ``k`` at
    bit ``32 * k``.

    >>> hex(sequence_code([1, 2]))
    '0x200000001'
    """
    packed = array(_UINT32, symbols)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed.tobytes(), "little")


def sequence_of(code: int, length: int) -> tuple[int, ...]:
    """The ``length`` symbols of a code: :func:`sequence_code` undone.

    >>> sequence_of(sequence_code([1, 0, 2]), 3)
    (1, 0, 2)
    """
    packed = array(_UINT32, code.to_bytes(4 * length, "little"))
    if sys.byteorder == "big":
        packed.byteswap()
    return tuple(packed)


def first_mismatch(a: int, b: int) -> Optional[tuple[int, int]]:
    """The symbols of codes ``a`` and ``b`` at the first position where
    they differ, or ``None`` if there is none.  Meant for codes of equal
    length: past an end, a code reads as symbols 0.

    >>> first_mismatch(sequence_code([4, 5, 6]), sequence_code([4, 7, 6]))
    (5, 7)
    """
    differ = a ^ b
    if not differ:
        return None
    shift = ((differ & -differ).bit_length() - 1) & ~31  # its 32-bit slot
    return (a >> shift) & 0xFFFFFFFF, (b >> shift) & 0xFFFFFFFF


def _codes(a: Sequence, b: Sequence) -> tuple[int, int]:
    """The codes of ``a`` and ``b``: every distinct symbol numbered in one
    table, so two codes are equal exactly when their symbols are ``==``
    (``1``, ``1.0`` and ``True`` share a number)."""
    table: dict = {}
    number = table.setdefault
    return (
        sequence_code([number(symbol, len(table)) for symbol in a]),
        sequence_code([number(symbol, len(table)) for symbol in b]),
    )


def within_codes(
    a: int, m: int, b: int, n: int, tau: int, levels: Optional[list] = None
) -> Optional[int]:
    """:func:`string_edit_within` of codes ``a`` (``m`` symbols) and ``b``
    (``n`` symbols): the threshold kernel of the module docstring.

    ``L[e][d]`` is kept at offset ``d + tau + 1`` of level ``e``; ``-1``
    marks a diagonal not computed at that level.  ``levels``, when given,
    receives every level, for :func:`align_codes`.
    """
    if tau < 0 or abs(m - n) > tau:
        return None
    t = n - m
    base = tau + 1
    current = [-1] * (2 * tau + 3)
    for e in range(tau + 1):
        previous, current = current, [-1] * (2 * tau + 3)
        for k in range(
            max(-e, t - tau + e, -m) + base, min(e, t + tau - e, n) + base + 1
        ):
            # Furthest of rename (k), insert (k - 1) and delete (k + 1).
            row = previous[k] + 1
            if previous[k - 1] > row:
                row = previous[k - 1]
            if previous[k + 1] >= row:
                row = previous[k + 1] + 1
            end = n - k + base  # the row of column n on this diagonal
            if m < end:
                end = m
            if row < end:
                x = (a >> (row << 5)) ^ (b >> ((row + k - base) << 5))
                if x:
                    row += ((x & -x).bit_length() - 1) >> 5
                    if row > end:
                        row = end
                else:
                    row = end
            else:
                row = end
            current[k] = row
        if levels is not None:
            levels.append(current)
        if current[t + base] == m:
            return e
    return None


def align_codes(
    a: int, m: int, b: int, n: int, tau: int
) -> Optional[tuple[int, list[tuple[int, int, int]]]]:
    """:func:`string_edit_alignment` of codes ``a`` (``m`` symbols) and
    ``b`` (``n`` symbols), with the aligned pairs as ascending runs
    ``(p, q, length)`` of pairs ``(p + k, q + k)``, ``k < length``."""
    levels: list[list[int]] = []
    distance = within_codes(a, m, b, n, tau, levels)
    if distance is None:
        return None
    base = tau + 1
    runs = []
    i, j, e = m, n, distance
    while i and j:
        # The equal run backward from (i, j): align the two prefixes at
        # their ends, and find the last symbol where they differ.
        if i < j:
            x = ((a << ((j - i) << 5)) ^ b) & ((1 << (j << 5)) - 1)
            run = j - ((x.bit_length() + 31) >> 5)
            if run > i:
                run = i
        else:
            x = (a ^ (b << ((i - j) << 5))) & ((1 << (i << 5)) - 1)
            run = i - ((x.bit_length() + 31) >> 5)
            if run > j:
                run = j
        if run:
            i -= run
            j -= run
            runs.append((i, j, run))
            continue
        # A mismatch in a cell of e edits: rename, delete or insert,
        # whichever first reaches a cell of e - 1 edits.
        below = levels[e - 1]
        k = j - i + base
        e -= 1
        if below[k] >= i - 1:
            i -= 1
            j -= 1
            runs.append((i, j, 1))
        elif below[k + 1] >= i - 1:
            i -= 1
        else:
            j -= 1
    runs.reverse()
    return distance, runs


def string_edit_within(
    a: Sequence[str],
    b: Sequence[str],
    tau: int,
) -> Optional[int]:
    """Return the edit distance if it is ``<= tau``, else ``None``.

    Runs the threshold kernel of the module docstring: at most
    ``(tau + 1)**2`` longest-common-extension lookups.

    >>> string_edit_within("kitten", "sitting", 3)
    3
    >>> string_edit_within("kitten", "sitting", 2) is None
    True
    """
    code_a, code_b = _codes(a, b)
    return within_codes(code_a, len(a), code_b, len(b), tau)


def string_edit_alignment(
    a: Sequence[str],
    b: Sequence[str],
    tau: int,
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """The edit distance if ``<= tau`` plus one optimal alignment, else ``None``.

    The alignment is the list of aligned position pairs ``(p, q)`` (``a[p]``
    kept as or renamed to ``b[q]``), ascending in both positions; every
    other position is deleted from ``a`` or inserted from ``b``.  Its cost,
    ``len(a) + len(b) - 2 * len(pairs)`` plus the renamed pairs, is the
    returned distance.  It is the alignment a traceback of the full DP
    finds when it starts at the last cell and prefers the diagonal step,
    then deleting from ``a``, then inserting from ``b``.

    >>> string_edit_alignment("abcd", "abd", 1)
    (1, [(0, 0), (1, 1), (3, 2)])
    >>> string_edit_alignment("abcd", "xyz", 2) is None
    True
    """
    code_a, code_b = _codes(a, b)
    aligned = align_codes(code_a, len(a), code_b, len(b), tau)
    if aligned is None:
        return None
    distance, runs = aligned
    pairs: list[tuple[int, int]] = []
    for p, q, length in runs:
        pairs += zip(range(p, p + length), range(q, q + length))
    return distance, pairs
