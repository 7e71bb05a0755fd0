"""The banded string edit DP and its traceback: the reference kernel.

Ukkonen's band fills the ``2*tau + 1`` diagonals of the string edit DP a
distance ``<= tau`` can reach, between the two sequences' common prefix
and suffix, and traces one optimal alignment back from the last cell,
preferring the diagonal step, then deleting from ``a``, then inserting
from ``b``.  :mod:`repro.ted.string_edit` answers the same questions with
a Landau–Vishkin kernel; the parity tests hold it to this one, symbol for
symbol and pair for pair.
"""

from __future__ import annotations

from typing import Optional, Sequence


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


def band_within(a, b, tau):
    """The edit distance if ``<= tau``, else ``None``, from the band."""
    if tau < 0 or abs(len(a) - len(b)) > tau:
        return None
    head, tail = _trim(a, b)
    return _band(a[head:len(a) - tail], b[head:len(b) - tail], tau, None)


def band_alignment(
    a: Sequence[str],
    b: Sequence[str],
    tau: int,
) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """The band's distance if ``<= tau`` plus its traced alignment."""
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
