"""String edit distance, plain and banded, with one optimal alignment.

Under unit costs, the edit distance of two trees' preorder (or postorder)
label sequences is a lower bound on their tree edit distance (Guha et
al., "Approximate XML Joins", SIGMOD 2002, [13] in the paper): a tree
mapping restricted to either traversal is a string alignment of the same
cost.  A similarity join only needs to know whether that distance exceeds
``tau``, so one banded kernel evaluates the ``2*tau + 1`` diagonals a
distance ``<= tau`` can reach, in ``O(tau * n)`` time, and abandons early.
It serves two callers:

- :func:`string_edit_within` — the STR baseline's candidate filter and
  the verifier's postorder bound;
- :func:`string_edit_alignment` — the same band, kept row by row, traced
  back to one optimal alignment.  The verifier aligns two preorder
  sequences this way and, when the aligned nodes also keep postorder
  order, takes the distance as the exact TED (see
  :class:`repro.baselines.common.Verifier`).

Sequences are sequences of hashable symbols (labels), not just characters.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["string_edit_distance", "string_edit_within", "string_edit_alignment"]


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


def _trim(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """Lengths of the common prefix of ``a`` and ``b`` and, of what is
    left after it, their common suffix.

    Trimming both leaves the edit distance unchanged, and an optimal
    alignment of the middles plus the trimmed symbols kept in place is
    an optimal alignment of the whole sequences.
    """
    head = 0
    for x, y in zip(a, b):
        if x != y:
            break
        head += 1
    tail = 0
    room = min(len(a), len(b)) - head
    for x, y in zip(reversed(a), reversed(b)):
        if tail == room or x != y:
            break
        tail += 1
    return head, tail


def _band(
    a: Sequence[str],
    b: Sequence[str],
    tau: int,
    rows: Optional[list[list[int]]],
) -> Optional[int]:
    """Ukkonen's banded DP: the edit distance if ``<= tau``, else ``None``.

    Cell ``(i, j)`` — the distance of ``a[:i]`` and ``b[:j]`` — is kept
    at offset ``k = j - i + tau`` of row ``i``, so a row holds only its
    ``2*tau + 1`` band cells plus one sentinel at offset ``2*tau + 1``.
    Cells outside the band, or outside ``0 <= j <= len(b)``, read as the
    sentinel ``tau + 1``: a cell with ``|i - j| > tau`` is ``> tau``, and
    a value ``> tau`` only ever flows into cells that are ``> tau`` too,
    so every cell ``<= tau`` is exact.  When every cell of a row exceeds
    ``tau`` the distance does too, and the DP stops.  ``rows``, when
    given, receives every row, for :func:`string_edit_alignment`.
    """
    la, lb = len(a), len(b)
    big = tau + 1
    width = 2 * tau + 1
    previous = [big] * (width + 1)
    for j in range(min(tau, lb) + 1):
        previous[tau + j] = j
    if rows is not None:
        rows.append(previous)
    for i in range(1, la + 1):
        sym = a[i - 1]
        current = [big] * (width + 1)
        first = tau - i  # offset of column 0
        if first >= 0:
            current[first] = left = i
            first += 1
        else:
            first = 0
            left = big
        last = lb - i + tau  # offset of column len(b)
        if last >= width:
            last = width - 1
        column = i - tau + first - 1  # index into b of offset `first`
        for k, sym_b in zip(
            range(first, last + 1), b[column:column + last - first + 1]
        ):
            # min(diagonal, up + 1, left + 1), with left the cell just set.
            up = previous[k + 1]
            if up < left:
                left = up
            left += 1
            diagonal = previous[k] if sym == sym_b else previous[k] + 1
            if diagonal < left:
                left = diagonal
            current[k] = left
        if min(current) > tau:
            return None
        if rows is not None:
            rows.append(current)
        previous = current
    distance = previous[lb - la + tau]
    return distance if distance <= tau else None


def string_edit_within(
    a: Sequence[str],
    b: Sequence[str],
    tau: int,
) -> Optional[int]:
    """Return the edit distance if it is ``<= tau``, else ``None``.

    Uses Ukkonen's banded dynamic program: cells farther than ``tau`` from
    the main diagonal can never contribute to a distance ``<= tau``, so only
    a band of ``2*tau + 1`` diagonals is filled.  If every cell of a row
    exceeds ``tau`` the computation stops early.  The band covers only
    what lies between the two sequences' common prefix and suffix.

    >>> string_edit_within("kitten", "sitting", 3)
    3
    >>> string_edit_within("kitten", "sitting", 2) is None
    True
    """
    if tau < 0 or abs(len(a) - len(b)) > tau:
        return None
    head, tail = _trim(a, b)
    return _band(a[head:len(a) - tail], b[head:len(b) - tail], tau, None)


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
    returned distance.  It is the alignment a traceback of the full band
    finds when it starts at the last cell and prefers the diagonal step,
    then deleting from ``a``, then inserting from ``b``; the band itself
    is filled only between the common prefix and suffix.

    >>> string_edit_alignment("abcd", "abd", 1)
    (1, [(0, 0), (1, 1), (3, 2)])
    >>> string_edit_alignment("abcd", "xyz", 2) is None
    True
    """
    if tau < 0 or abs(len(a) - len(b)) > tau:
        return None
    head, tail = _trim(a, b)
    end_a, end_b = len(a) - tail, len(b) - tail
    middle_a, middle_b = a[head:end_a], b[head:end_b]
    rows: list[list[int]] = []
    distance = _band(middle_a, middle_b, tau, rows)
    if distance is None:
        return None
    # Traced backwards, so the pairs collect in descending order.  Equal
    # last symbols always take the diagonal: the common suffix aligns.
    pairs = list(zip(range(len(a) - 1, end_a - 1, -1),
                     range(len(b) - 1, end_b - 1, -1)))
    i, j = end_a - head, end_b - head
    k = j - i + tau
    while i and j:
        value = rows[i][k]
        above = rows[i - 1]
        if above[k] + (middle_a[i - 1] != middle_b[j - 1]) == value:
            i -= 1
            j -= 1
            pairs.append((head + i, head + j))
        elif above[k + 1] + 1 == value:
            i -= 1
            k += 1
        else:
            j -= 1
            k -= 1
    # Where one prefix lies inside the common prefix, it is a prefix of the
    # other, so cell (x, y) holds |x - y|: the diagonal is optimal exactly
    # on equal symbols, and otherwise the longer prefix gives one up.
    x, y = head + i, head + j
    while x != y and x and y:
        if a[x - 1] == b[y - 1]:
            x -= 1
            y -= 1
            pairs.append((x, y))
        elif x > y:
            x -= 1
        else:
            y -= 1
    pairs += zip(range(x - 1, -1, -1), range(y - 1, -1, -1))
    pairs.reverse()
    return distance, pairs
