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
- A *depth-3 screen* covers the eight great-grandchild slots, the LC-RS
  children of the four grandchild slots: left-left-left, left-left-right,
  left-right-left, ..., right-right-right.  Slot ``k`` takes the 22 bits
  from ``22*k`` and holds the label id + 1, or 0.  A probe node's
  *screen word* fills every slot it has: the grandchild slots of its
  left child, then those of its right child (:func:`screen_word`).  A
  subgraph's *screen* fills the slots of its member great-grandchildren,
  and its *screen mask* is the one of 256 shared masks that covers them
  (:func:`subgraph_bits`).  A subgraph can match at a node only if
  ``word & mask == screen``; the index tests that before the matcher.

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
    "subgraph_bits",
    "screen_word",
    "unpack_grandchildren",
    "shape_of",
    "SCREEN_MASKS",
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
# Depth-3 screens: eight great-grandchild slots of 22 bits from bit 0.  A
# node's word puts its right child's grandchild slots above its left's.
_SCREEN_RIGHT_SHIFT = 4 * _SLOT_BITS
#: Per 8-bit code, the mask of the great-grandchild slots it names.
SCREEN_MASKS = tuple(
    sum(_SLOT_MASK << k * _SLOT_BITS for k in range(8) if code >> k & 1)
    for code in range(256)
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
    The index's probe (:meth:`repro.core.index.InvertedSizeIndex.probe`)
    builds its keys here.

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


def grandchild_bits(labels, left, right, node: int) -> int:
    """The bits a depth-2 key adds above probe node ``node``'s twig key.

    ``labels`` / ``left`` / ``right`` are a record's flat arrays
    (:class:`repro.core.treecache.TreeCache`).  Slot ``k`` (left-left,
    left-right, right-left, right-right) is filled when that grandchild
    exists: it holds the label id + 1 and sets shape bit ``k``.  A
    subgraph fills only its member grandchildren (:func:`subgraph_bits`);
    its twig key OR those bits is the key the forward index files it
    under.

    Below, ``{a{b{c}}{d}}`` in binary postorder: ``a``'s left child is
    ``b``, whose left and right children are ``c`` and ``d``.

    >>> labels, left, right = [0, 3, 4, 2, 1], [0, 0, 0, 1, 3], [0, 0, 0, 2, 0]
    >>> unpack_grandchildren(grandchild_bits(labels, left, right, 4))
    (3, 4, None, None)
    """
    bits = 0
    child = left[node]
    if child:
        grandchild = left[child]
        if grandchild:
            bits = _SHAPE_BITS[0] | (labels[grandchild] + 1) << _SLOT_SHIFTS[0]
        grandchild = right[child]
        if grandchild:
            bits |= _SHAPE_BITS[1] | (labels[grandchild] + 1) << _SLOT_SHIFTS[1]
    child = right[node]
    if child:
        grandchild = left[child]
        if grandchild:
            bits |= _SHAPE_BITS[2] | (labels[grandchild] + 1) << _SLOT_SHIFTS[2]
        grandchild = right[child]
        if grandchild:
            bits |= _SHAPE_BITS[3] | (labels[grandchild] + 1) << _SLOT_SHIFTS[3]
    return bits


def subgraph_bits(labels, left, right, root: int, member) -> tuple[int, int, int]:
    """``(grandchild bits, screen, screen mask)`` of the subgraph rooted
    at ``root`` with bitmap ``member``, in one walk of its top three
    levels.

    The grandchild bits are :func:`grandchild_bits` restricted to the
    member grandchildren below member children.  The screen holds, in
    great-grandchild slot ``2*k + side``, the label id + 1 of the member
    LC-RS child (``side`` 0 left, 1 right) of the member grandchild in
    slot ``k``; the mask is :data:`SCREEN_MASKS` of the filled slots'
    code.  A match maps each member onto the node at the same path below
    the probe node, with the same label, so it needs :func:`screen_word`
    of that node, masked, to equal the screen.

    Below, :func:`grandchild_bits`' tree under a new root ``x`` (5),
    ``{x{a{b{c}}{d}}}``, and its subgraph without ``d``: the subgraph
    rooted at ``a`` has one member grandchild, ``c``, and ``c`` is a
    member great-grandchild of ``x``, in slot left-left-left.

    >>> labels, left, right = [0, 3, 4, 2, 1, 9], [0, 0, 0, 1, 3, 4], [0, 0, 0, 2, 0, 0]
    >>> member = bytes([0, 1, 0, 1, 1, 1])  # d belongs to another subgraph
    >>> unpack_grandchildren(subgraph_bits(labels, left, right, 4, member)[0])
    (3, None, None, None)
    >>> bits, screen, mask = subgraph_bits(labels, left, right, 5, member)
    >>> unpack_grandchildren(bits), screen == labels[1] + 1, mask == SCREEN_MASKS[1]
    ((2, None, None, None), True, True)
    >>> word = screen_word(grandchild_bits(labels, left, right, 4), 0)
    >>> word & mask == screen
    True
    """
    # Unrolled like grandchild_bits: insert runs this once per subgraph.
    bits = screen = code = 0
    child = left[root]
    if child and member[child]:
        node = left[child]
        if node and member[node]:
            bits = _SHAPE_BITS[0] | (labels[node] + 1) << _SLOT_SHIFTS[0]
            below = left[node]
            if below and member[below]:
                screen = labels[below] + 1
                code = 1
            below = right[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << _SLOT_BITS
                code |= 2
        node = right[child]
        if node and member[node]:
            bits |= _SHAPE_BITS[1] | (labels[node] + 1) << _SLOT_SHIFTS[1]
            below = left[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << 2 * _SLOT_BITS
                code |= 4
            below = right[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << 3 * _SLOT_BITS
                code |= 8
    child = right[root]
    if child and member[child]:
        node = left[child]
        if node and member[node]:
            bits |= _SHAPE_BITS[2] | (labels[node] + 1) << _SLOT_SHIFTS[2]
            below = left[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << 4 * _SLOT_BITS
                code |= 16
            below = right[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << 5 * _SLOT_BITS
                code |= 32
        node = right[child]
        if node and member[node]:
            bits |= _SHAPE_BITS[3] | (labels[node] + 1) << _SLOT_SHIFTS[3]
            below = left[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << 6 * _SLOT_BITS
                code |= 64
            below = right[node]
            if below and member[below]:
                screen |= (labels[below] + 1) << 7 * _SLOT_BITS
                code |= 128
    return bits, screen, SCREEN_MASKS[code]


def screen_word(left_bits: int, right_bits: int) -> int:
    """A probe node's depth-3 screen word, from the :func:`grandchild_bits`
    of its left and right children (``0`` for a missing child): the
    grandchild slots of its left child are its great-grandchild slots 0-3,
    those of its right child slots 4-7."""
    return (
        left_bits >> _GRANDCHILD_SHIFT
        | (right_bits >> _GRANDCHILD_SHIFT) << _SCREEN_RIGHT_SHIFT
    )


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
    >>> key = twig | subgraph_bits(labels, left, right, 4, member)[0]
    >>> shape_bits, mask = shape_of(key)
    >>> twig | shape_bits | (grandchild_bits(labels, left, right, 4) & mask) == key
    True
    """
    return _SHAPES[key >> _SHAPE_SHIFT & 15]
