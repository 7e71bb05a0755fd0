"""Collection-wide label interning and packed integer twig keys.

The candidate-generation hot path (probe/insert of Algorithm 1) never
compares label *strings*: every label is interned once into a small
integer id, and the subgraph index keys on a single packed integer per
subgraph top instead of a tuple of strings.  Integer equality and
integer hashing are both several times cheaper than tuple-of-string
hashing, and the ids double as direct indices into per-tree flat arrays
(:mod:`repro.core.treecache`).

Layout
------
- Id ``0`` is reserved for :data:`EPSILON` (the dummy label of a missing
  or non-member binary child, ``""``), so a twig id of zero always means
  "no edge / bridging edge" without a lookup.
- Ids are assigned densely in first-seen order and never exceed
  ``MAX_LABEL_ID`` (21 bits), which lets a whole twig ``(label, left,
  right)`` pack into one 63-bit integer via :func:`pack_twig`.
- A *depth-2 key* extends a packed twig with the subgraph's member
  grandchildren — the LC-RS children of its member children, four slots
  in the order left-left, left-right, right-left, right-right
  (:func:`grandchild_bits`).  Bits 63-66 hold a 4-bit shape code with
  bit ``k`` set when slot ``k`` is constrained; above them, slot ``k``
  takes the 22 bits from ``67 + 22*k`` and holds the grandchild's label
  id + 1, or 0 when the slot is unconstrained.  The +1 keeps a real
  ``""`` label (id 0) apart from a missing grandchild, and the shape
  code keeps two shapes from yielding one key for a probe node that
  lacks a grandchild one of them constrains.  The forward index
  (:class:`repro.core.index.InvertedSizeIndex`) files each subgraph
  under this key.

A process-wide :data:`DEFAULT_INTERNER` is shared by every
:class:`~repro.core.treecache.TreeCache` unless an explicit interner is
passed, so caches built independently (tests, multiple joins in one
process) always agree on ids.  The mapping is append-only and tiny (one
entry per distinct label ever seen), so the shared default is safe.

A search query is not part of the collection it searches: its record is
built over a :class:`QueryInterner`, which reads the collection's ids
and numbers the query's other labels above them without storing them,
so queries never grow the collection's interner.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError

__all__ = [
    "EPSILON",
    "EPSILON_ID",
    "MAX_LABEL_ID",
    "TWIG_LABEL_SHIFT",
    "TWIG_LEFT_SHIFT",
    "LabelInterner",
    "QueryInterner",
    "DEFAULT_INTERNER",
    "pack_twig",
    "unpack_twig",
    "search_keys",
    "grandchild_bits",
    "unpack_grandchildren",
    "shape_of",
]

EPSILON = ""  # dummy label for a missing/non-member binary child
EPSILON_ID = 0  # its interned id, reserved in every interner

_LABEL_BITS = 21
MAX_LABEL_ID = (1 << _LABEL_BITS) - 1  # 2_097_151 distinct labels

# Bit positions of the twig components inside a packed key.
TWIG_LABEL_SHIFT = 2 * _LABEL_BITS
TWIG_LEFT_SHIFT = _LABEL_BITS

# Depth-2 keys: the 63 twig bits, a 4-bit shape code, then four grandchild
# slots of 22 bits, since MAX_LABEL_ID + 1 needs the 22nd bit.
_SHAPE_SHIFT = 3 * _LABEL_BITS
_GRANDCHILD_SHIFT = _SHAPE_SHIFT + 4
_SLOT_BITS = _LABEL_BITS + 1
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_SLOT_SHIFTS = tuple(_GRANDCHILD_SHIFT + k * _SLOT_BITS for k in range(4))
_SHAPE_BITS = tuple(1 << (_SHAPE_SHIFT + k) for k in range(4))
# Per shape code, one shared pair: the code in place, and a mask of the
# grandchild slots it constrains.
_SHAPES = tuple(
    (
        code << _SHAPE_SHIFT,
        sum(_SLOT_MASK << _SLOT_SHIFTS[k] for k in range(4) if code >> k & 1),
    )
    for code in range(16)
)


def _bounded(lid: int) -> int:
    """``lid`` if it fits the packed-key layout, else the overflow error."""
    if lid > MAX_LABEL_ID:
        raise InvalidParameterError(
            f"label interner overflow: more than {MAX_LABEL_ID} "
            "distinct labels in one collection"
        )
    return lid


class LabelInterner:
    """Append-only bijection between label strings and dense small ints.

    >>> interner = LabelInterner()
    >>> interner.intern("a"), interner.intern("b"), interner.intern("a")
    (1, 2, 1)
    >>> interner.label(2)
    'b'
    """

    __slots__ = ("_ids", "_labels", "get")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {EPSILON: EPSILON_ID}
        self._labels: list[str] = [EPSILON]
        # The id of a label if already interned, else None.  Bound directly
        # to the table's own ``get`` so the per-node hot loops skip a
        # Python-level call frame.
        self.get = self._ids.get

    def intern(self, label: str) -> int:
        """The id of ``label``, assigning the next free id on first sight."""
        ids = self._ids
        lid = ids.get(label)
        if lid is None:
            lid = _bounded(len(self._labels))
            ids[label] = lid
            self._labels.append(label)
        return lid

    def label(self, lid: int) -> str:
        """Inverse of :meth:`intern` (raises ``IndexError`` for unknown ids)."""
        return self._labels[lid]

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids


class QueryInterner:
    """A query-local extension of a shared :class:`LabelInterner`.

    Labels the base knows keep their ids; any other label gets a fresh id
    above the base's, under the same 21-bit bound, and is kept here only.
    A query record built over it probes and verifies against the base's
    records unchanged (a fresh id matches no stored label), and the base
    never grows.

    >>> base = LabelInterner()
    >>> base.intern("a")
    1
    >>> query = QueryInterner(base)
    >>> query.intern("a"), query.intern("z"), query.label(2), len(base)
    (1, 2, 'z', 2)
    """

    __slots__ = ("_base", "_first", "_ids", "_labels")

    def __init__(self, base: LabelInterner) -> None:
        self._base = base
        self._first = len(base)  # the first id of a query-only label
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []

    def get(self, label: str) -> "int | None":
        lid = self._base.get(label)
        return self._ids.get(label) if lid is None else lid

    def intern(self, label: str) -> int:
        lid = self.get(label)
        if lid is None:
            lid = _bounded(self._first + len(self._labels))
            self._ids[label] = lid
            self._labels.append(label)
        return lid

    def label(self, lid: int) -> str:
        if lid < self._first:
            return self._base.label(lid)
        return self._labels[lid - self._first]


#: Shared by every :class:`TreeCache` built without an explicit interner.
DEFAULT_INTERNER = LabelInterner()


def pack_twig(label_id: int, left_id: int, right_id: int) -> int:
    """Pack a twig ``(label, left, right)`` of interned ids into one int.

    The layout is ``label << 42 | left << 21 | right`` with 21 bits per
    component; ids are guaranteed to fit by :meth:`LabelInterner.intern`.
    The packed value is what the two-layer index hashes — one small-int
    key instead of a three-string tuple.

    >>> unpack_twig(pack_twig(5, 0, 7))
    (5, 0, 7)
    """
    return (label_id << TWIG_LABEL_SHIFT) | (left_id << TWIG_LEFT_SHIFT) | right_id


def unpack_twig(key: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack_twig`."""
    return (
        (key >> TWIG_LABEL_SHIFT) & MAX_LABEL_ID,
        (key >> TWIG_LEFT_SHIFT) & MAX_LABEL_ID,
        key & MAX_LABEL_ID,
    )


def search_keys(label: int, left: int, right: int) -> tuple[int, ...]:
    """The paper's at-most-four probe keys for a node twig, deduplicated.

    A probe node searches its full twig plus the variants with either or
    both children replaced by epsilon; with a missing child (id 0) the
    epsilon variant coincides, so only the distinct packed keys survive.
    The index's probes (:meth:`repro.core.index.InvertedSizeIndex.probe`
    and ``probe_larger``) build their keys here.

    >>> [unpack_twig(k) for k in search_keys(3, 1, 2)]
    [(3, 1, 2), (3, 1, 0), (3, 0, 2), (3, 0, 0)]
    >>> [unpack_twig(k) for k in search_keys(3, 0, 2)]
    [(3, 0, 2), (3, 0, 0)]
    """
    full_key = (label << TWIG_LABEL_SHIFT) | (left << TWIG_LEFT_SHIFT) | right
    bare_key = label << TWIG_LABEL_SHIFT
    if left:
        if right:
            return (full_key, full_key - right, bare_key | right, bare_key)
        return (full_key, bare_key)
    if right:
        return (full_key, bare_key)
    return (full_key,)


def grandchild_bits(labels, left, right, node: int, member=None) -> int:
    """The bits a depth-2 key adds above ``node``'s twig key.

    ``labels`` / ``left`` / ``right`` are a record's flat arrays
    (:class:`repro.core.treecache.TreeCache`).  Slot ``k`` (left-left,
    left-right, right-left, right-right) is filled when that grandchild
    exists and, given a subgraph's bitmap ``member``, when it and the
    child above it are both members.  A filled slot holds the label id
    + 1 and sets shape bit ``k``.  A subgraph's twig key OR these bits
    (over its bitmap) is the key the forward index files it under; a
    probe node passes no bitmap and so fills every slot it has.

    Below, ``{a{b{c}}{d}}`` in binary postorder: ``a``'s left child is
    ``b``, whose left and right children are ``c`` and ``d``.

    >>> labels, left, right = [0, 3, 4, 2, 1], [0, 0, 0, 1, 3], [0, 0, 0, 2, 0]
    >>> unpack_grandchildren(grandchild_bits(labels, left, right, 4))
    (3, 4, None, None)
    >>> member = bytes([0, 1, 0, 1, 1])  # d belongs to another subgraph
    >>> unpack_grandchildren(grandchild_bits(labels, left, right, 4, member))
    (3, None, None, None)
    """
    bits = 0
    child = left[node]
    if child and (member is None or member[child]):
        grandchild = left[child]
        if grandchild and (member is None or member[grandchild]):
            bits = _SHAPE_BITS[0] | (labels[grandchild] + 1) << _SLOT_SHIFTS[0]
        grandchild = right[child]
        if grandchild and (member is None or member[grandchild]):
            bits |= _SHAPE_BITS[1] | (labels[grandchild] + 1) << _SLOT_SHIFTS[1]
    child = right[node]
    if child and (member is None or member[child]):
        grandchild = left[child]
        if grandchild and (member is None or member[grandchild]):
            bits |= _SHAPE_BITS[2] | (labels[grandchild] + 1) << _SLOT_SHIFTS[2]
        grandchild = right[child]
        if grandchild and (member is None or member[grandchild]):
            bits |= _SHAPE_BITS[3] | (labels[grandchild] + 1) << _SLOT_SHIFTS[3]
    return bits


def unpack_grandchildren(key: int) -> tuple:
    """The four grandchild label ids of a depth-2 key (or of
    :func:`grandchild_bits`), ``None`` where a slot is unconstrained."""
    return tuple(
        (key >> shift & _SLOT_MASK) - 1 if key & shape else None
        for shape, shift in zip(_SHAPE_BITS, _SLOT_SHIFTS)
    )


def shape_of(key: int) -> tuple[int, int]:
    """``(shape_bits, mask)`` of a depth-2 key: its 4-bit shape code in
    place, and a mask of the grandchild slots that code constrains.

    A probe node with twig key ``t`` and grandchild bits ``g`` can match
    a subgraph filed under ``key`` only if ``t | shape_bits | (g & mask)
    == key``.  The shape bits keep two shapes apart where ``g`` lacks a
    slot one of them constrains.  The 16 pairs are shared constants, so
    an index that keeps one per filed shape allocates nothing for it.

    With the record of :func:`grandchild_bits`' example, a subgraph
    ``{a{b{c}}}`` is found by node ``a`` of the whole tree:

    >>> labels, left, right = [0, 3, 4, 2, 1], [0, 0, 0, 1, 3], [0, 0, 0, 2, 0]
    >>> member = bytes([0, 1, 0, 1, 1])
    >>> twig = pack_twig(1, 2, 0)
    >>> key = twig | grandchild_bits(labels, left, right, 4, member)
    >>> shape_bits, mask = shape_of(key)
    >>> twig | shape_bits | (grandchild_bits(labels, left, right, 4) & mask) == key
    True
    """
    return _SHAPES[key >> _SHAPE_SHIFT & 15]
