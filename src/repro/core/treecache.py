"""One flat, interned record per tree, shared by filtering and verification.

For every tree the join touches, :class:`TreeCache` materializes once the
LC-RS binary representation — *as parallel integer arrays, not as a node
object graph*.  It reads the tree in whichever form the
:class:`~repro.tree.node.Tree` holds it: a tree read from text (every
dataset file, snapshot, log, stream line and worker pickle) in one pass
over its bracket text, with no node object ever built; a tree built in
memory in one walk over its nodes.  Both give the same arrays and intern
the labels in the same order, binary postorder, so label ids, twig keys
and everything persisted from them do not depend on the form.

Nodes are identified by their 1-based binary postorder
number ``b`` (the traversal order of Algorithm 2 and of the probe loop,
Algorithm 1 line 6); slot ``0`` of every array is unused so that ``0``
can mean "no child / no parent".  The arrays are:

- ``labels[b]`` — the interned label id (:mod:`repro.core.intern`) of the
  node, shared collection-wide so ids are comparable across trees;
- ``left[b]`` / ``right[b]`` — binary postorder numbers of the LC-RS
  left (leftmost-child) and right (next-sibling) children, or ``0``;
- ``parent[b]`` — binary postorder number of the binary parent, ``0`` at
  the root (which is always number ``size``, being last in postorder);
- ``general_post[b]`` — the *general-tree* postorder number of the
  node's general twin, which is the position identifier the two-layer
  index keys on.

The probe loop, partition extraction and subgraph matching all walk these
arrays with plain integer indices — no attribute loads, no ``id()``-keyed
dictionaries, no per-node objects.

Verifier views
--------------
Verification (:class:`repro.baselines.common.Verifier`) reads the same
record: every view below is derived from the arrays on first use and
memoized on the record, so the verifier never reads a tree's nodes.
``labels[0]`` is ``0``, the id of epsilon, which lets a missing child
read as epsilon without a branch.

- :attr:`label_bag` — ``Counter(labels[1:])``.  A real ``""`` label also
  interns to id ``0``, so slot 0 is sliced off, never subtracted by value.
- :attr:`degree_bag` — the general degree of node ``b`` is the length of
  the sibling chain starting at ``left[b]``; one ascending pass computes
  every chain length as ``chain[b] = 1 + chain[right[b]]``.
- :attr:`branch_bag` — the binary branches of Yang et al.,
  ``(labels[b], labels[left[b]], labels[right[b]])``: id ``0`` plays
  epsilon exactly as ``""`` does in
  :func:`repro.ted.binary_branch.binary_branches`.
- :attr:`preorder` / :attr:`postorder` — label ids in general preorder
  (which equals the LC-RS preorder) and general postorder (through
  ``general_post``), for the traversal-string bounds and the preorder
  alignment.
- :attr:`preorder_post` — the general postorder number at each preorder
  position, built in the same walk as :attr:`preorder`; the verifier
  reads it to certify a preorder alignment.
- :attr:`annotation` / :attr:`mirror_annotation` — the Zhang–Shasha
  arrays (:class:`~repro.ted.zhang_shasha.AnnotatedTree`) in either
  orientation.  Leftmost: follow ``left`` chains, ``lm[b] = lm[left[b]]``, then
  ``lmld[gp[b]] = gp[lm[b]]``.  Mirrored (every child list reversed),
  with no mirrored tree: a node's mirrored postorder number is
  ``n + 1 - preorder number``, and its mirrored leftmost leaf is its
  original rightmost leaf, so ``lmld'[m] = m - |subtree| + 1``.

:func:`repro.ted.zhang_shasha.oriented` picks between the two
orientations of a pair, and :class:`RecordStore` is the one
per-collection store of records — keyed by original index, all over one
interner — that the session, the streaming engine, the searchers and the
verifier share.

Why general-tree postorder?  The postorder-pruning layer (paper Section
3.4) relies on "a node edit operation shifts a surviving node's postorder
identifier by at most one".  That statement is provable for the general
tree's postorder — insert/delete/rename all preserve the relative postorder
of surviving nodes, and each changes the predecessor count by at most one —
but *not* for the binary tree's postorder, where deleting one node can
displace a promoted subtree past an arbitrarily large sibling subtree.
Keying the index on general postorder keeps the paper's scheme while making
the conservative window (``postorder_filter="safe"``) provably correct; see
``repro.core.index`` for the window arithmetic.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.intern import DEFAULT_INTERNER, LabelInterner, QueryInterner
from repro.ted.zhang_shasha import AnnotatedTree
from repro.tree.bracket import bracket_nodes
from repro.tree.node import Tree, TreeNode

__all__ = ["TreeCache", "RecordStore"]


class TreeCache:
    """All derived structures PartSJ needs for one tree, as flat arrays.

    Attributes
    ----------
    interner:
        The label interner the array ids refer to (the process-wide
        default unless one is passed, so independently built caches
        agree on ids; a search query's record uses a
        :class:`~repro.core.intern.QueryInterner`).
    size:
        Node count (identical for the general and binary representations).
    labels, left, right, parent, general_post:
        The parallel arrays described in the module docstring, indexed by
        1-based binary postorder number.
    internal:
        Ascending binary postorder numbers of the nodes with at least one
        binary child.  The greedy partitioning passes (Algorithms 2/3)
        iterate only these: binary leaves contribute a constant ``1`` that
        a C-speed list fill provides up front.

    The verifier views (:attr:`label_bag`, :attr:`degree_bag`,
    :attr:`branch_bag`, :attr:`preorder`, :attr:`preorder_post`,
    :attr:`postorder`, :attr:`annotation`, :attr:`mirror_annotation`)
    are built on first use.  Their slots stay unset until then, so the
    constructor does no work for them.
    """

    __slots__ = (
        "interner",
        "size",
        "labels",
        "left",
        "right",
        "parent",
        "general_post",
        "internal",
        "_label_bag",
        "_degree_bag",
        "_branch_bag",
        "_preorder",
        "_preorder_post",
        "_postorder",
        "_annotation",
        "_mirror_annotation",
    )

    def __init__(
        self,
        tree: Tree,
        interner: "LabelInterner | QueryInterner | None" = None,
    ):
        self.interner = DEFAULT_INTERNER if interner is None else interner
        self.size = tree.size
        text = tree.text
        if text is None:
            self._read_nodes(tree.root)
        else:
            self._read_text(text)

    def _read_nodes(self, root: TreeNode) -> None:
        """The arrays of a tree held as nodes, in one walk over them."""
        intern = self.interner.intern
        # Fast path: most labels are already interned, so the hot loop
        # reads the id table directly and only falls back to intern() for
        # first-seen labels (which enforces the packing bound).
        known_ids = self.interner.get

        n = self.size
        labels = [0] * (n + 1)
        left = [0] * (n + 1)
        right = [0] * (n + 1)
        parent = [0] * (n + 1)
        gp = [0] * (n + 1)
        internal: list[int] = []
        internal_append = internal.append

        # One iterative pass over the *general* nodes computes everything.
        # A binary node is a general node viewed inside its sibling list:
        # its LC-RS left child is its first general child, its LC-RS right
        # child is its next sibling.  The pass walks the binary structure
        # with three states per node — descend-left (0), between-subtrees
        # (1), emit (2) — and assigns binary *postorder* numbers at state
        # 2 and, at state 1, binary *inorder* numbers, which are exactly
        # the general tree's postorder numbers (LC-RS inorder visits a
        # node after all its general children and earlier siblings).  The
        # child links resolve without any id()-keyed table: a node is the
        # last of its own binary subtree in postorder, so at state 1 the
        # running postorder counter *is* the left child's number, and at
        # state 2 it is the right child's.
        post_counter = 0
        in_counter = 0
        # Stack entries: (general node, its sibling list, index in it,
        # state, inorder number and left-child number once known).
        stack: list[tuple[TreeNode, list[TreeNode], int, int, int, int]] = [
            (root, [root], 0, 0, 0, 0)
        ]
        push = stack.append
        while stack:
            node, sibs, idx, state, in_number, left_num = stack.pop()
            if state == 0:
                children = node.children
                if children:
                    # in_number slot doubles as a has-children flag here.
                    push((node, sibs, idx, 1, 1, 0))
                    push((children[0], children, 0, 0, 0, 0))
                    continue
                state = 1  # no left subtree: fall through to the inorder visit
            if state == 1:
                if in_number:
                    left_num = post_counter  # last emitted = the left child
                in_counter += 1
                in_number = in_counter
                nxt = idx + 1
                if nxt < len(sibs):
                    push((node, sibs, idx, 2, in_number, left_num))
                    push((sibs[nxt], sibs, nxt, 0, 0, 0))
                    continue
                right_num = 0  # no right subtree: emit directly
            else:
                right_num = post_counter  # last emitted = the right child
            post_counter += 1
            b = post_counter
            node_label = node.label
            lid = known_ids(node_label)
            labels[b] = intern(node_label) if lid is None else lid
            gp[b] = in_number
            if left_num:
                left[b] = left_num
                parent[left_num] = b
                internal_append(b)
                if right_num:
                    right[b] = right_num
                    parent[right_num] = b
            elif right_num:
                right[b] = right_num
                parent[right_num] = b
                internal_append(b)

        self.labels = labels
        self.left = left
        self.right = right
        self.parent = parent
        self.general_post = gp
        self.internal = internal

    def _read_text(self, text: str) -> None:
        """The arrays of a tree held as canonical bracket text, in one
        pass over its nodes (:func:`repro.tree.bracket.bracket_nodes`).

        A node's LC-RS right subtree holds its later siblings, so binary
        postorder emits a sibling list after all of their subtrees, last
        sibling first.  That happens where their parent closes: each
        closing brace numbers the closed node's children, and the node
        itself *pends* until its own parent closes.  Pending nodes form a
        stack, on which a node's children are the entries pushed since it
        opened.  Each carries its label, its general postorder number
        (the closing brace's rank) and its first child's binary number,
        the last one its close handed out (its LC-RS left child).  The
        labels are interned after the pass, in binary postorder as the
        node walk interns them, so both assign the same ids.
        """
        n = self.size
        names = [""] * (n + 1)
        left = [0] * (n + 1)
        right = [0] * (n + 1)
        parent = [0] * (n + 1)
        gp = [0] * (n + 1)
        internal: list[int] = []
        internal_append = internal.append

        open_labels: list[str] = []
        heights: list[int] = []  # the pending stack's height at each open
        pending_labels: list[str] = []
        pending_post: list[int] = []  # general postorder numbers
        pending_first: list[int] = []  # first child's binary number, or 0
        push_label, pop_label = pending_labels.append, pending_labels.pop
        push_post, pop_post = pending_post.append, pending_post.pop
        push_first, pop_first = pending_first.append, pending_first.pop
        post = 0  # binary postorder numbers handed out
        closed = 0  # general postorder numbers handed out
        for label, closes in bracket_nodes(text):
            if not closes:  # it has children: it stays open
                open_labels.append(label)
                heights.append(len(pending_labels))
                continue
            # A leaf closes at once and pends; each further brace closes
            # the innermost open node.
            closed += 1
            push_label(label)
            push_post(closed)
            push_first(0)
            while closes > 1:
                closes -= 1
                closed += 1
                unnumbered = len(pending_labels) - heights.pop()
                sibling = 0  # the right sibling of the child numbered next
                while unnumbered:
                    unnumbered -= 1
                    post += 1
                    names[post] = pop_label()
                    gp[post] = pop_post()
                    child = pop_first()
                    if child:
                        left[post] = child
                        parent[child] = post
                    if sibling:
                        right[post] = sibling
                        parent[sibling] = post
                    if child or sibling:
                        internal_append(post)
                    sibling = post
                push_label(open_labels.pop())
                push_post(closed)
                push_first(sibling)  # the first child, numbered last
        # The root pends alone; it is number n.
        names[n] = pending_labels[0]
        gp[n] = n
        child = pending_first[0]
        if child:
            left[n] = child
            parent[child] = n
            internal_append(n)

        labels = list(map(self.interner.get, names))
        if None in labels:
            # First-seen labels, in binary postorder (intern() enforces
            # the packing bound).
            intern = self.interner.intern
            for b, lid in enumerate(labels):
                if lid is None:
                    labels[b] = intern(names[b])
        self.labels = labels
        self.left = left
        self.right = right
        self.parent = parent
        self.general_post = gp
        self.internal = internal

    # -- fast array accessors ------------------------------------------------

    def incoming_code(self, number: int) -> int:
        """Incoming-edge category of node ``number``: 0 root, 1 left, 2 right."""
        p = self.parent[number]
        if p == 0:
            return 0
        return 1 if self.left[p] == number else 2

    # -- verifier views (built on first use; see the module docstring) -------
    #
    # An unset slot raises AttributeError, which marks a view not built yet.

    @property
    def label_bag(self) -> Counter:
        """Multiset of label ids."""
        try:
            return self._label_bag
        except AttributeError:
            bag = self._label_bag = Counter(self.labels[1:])
            return bag

    @property
    def degree_bag(self) -> Counter:
        """Histogram of general-tree node degrees."""
        try:
            return self._degree_bag
        except AttributeError:
            right = self.right
            chain = [0] * (self.size + 1)  # sibling-chain length from b on
            for b in range(1, self.size + 1):
                chain[b] = chain[right[b]] + 1
            bag = self._degree_bag = Counter(map(chain.__getitem__, self.left[1:]))
            return bag

    @property
    def branch_bag(self) -> Counter:
        """Multiset of binary branches as label-id triples (0 = epsilon)."""
        try:
            return self._branch_bag
        except AttributeError:
            labels = self.labels
            label_of = labels.__getitem__
            bag = self._branch_bag = Counter(zip(
                labels[1:],
                map(label_of, self.left[1:]),
                map(label_of, self.right[1:]),
            ))
            return bag

    @property
    def preorder(self) -> tuple[int, ...]:
        """Label ids in general-tree preorder."""
        try:
            return self._preorder
        except AttributeError:
            self._walk_preorder()
            return self._preorder

    @property
    def preorder_post(self) -> tuple[int, ...]:
        """General postorder number of the node at each preorder position.

        The verifier maps a preorder alignment's pairs through it to check
        that they keep postorder order too.
        """
        try:
            return self._preorder_post
        except AttributeError:
            self._walk_preorder()
            return self._preorder_post

    def _walk_preorder(self) -> None:
        """Build :attr:`preorder` and :attr:`preorder_post` in one walk."""
        numbers = self._preorder_numbers()
        self._preorder = tuple(map(self.labels.__getitem__, numbers))
        self._preorder_post = tuple(map(self.general_post.__getitem__, numbers))

    @property
    def postorder(self) -> tuple[int, ...]:
        """Label ids in general-tree postorder."""
        try:
            return self._postorder
        except AttributeError:
            labels = self.labels
            ordered = [0] * (self.size + 1)
            for b, g in enumerate(self.general_post):
                ordered[g] = labels[b]
            sequence = self._postorder = tuple(ordered[1:])
            return sequence

    @property
    def annotation(self) -> AnnotatedTree:
        """The Zhang–Shasha arrays, decomposing along leftmost paths.

        Labels are the label strings, so a custom ``rename_cost`` receives
        them as such.
        """
        try:
            return self._annotation
        except AttributeError:
            labels, left, gp = self.labels, self.left, self.general_post
            name = self.interner.label
            n = self.size
            names = [""] * (n + 1)
            lmld = [0] * (n + 1)
            leftmost = [0] * (n + 1)  # binary number of b's leftmost leaf
            for b in range(1, n + 1):
                child = left[b]  # smaller than b: already resolved
                leaf = leftmost[b] = leftmost[child] if child else b
                g = gp[b]
                names[g] = name(labels[b])
                lmld[g] = gp[leaf]
            annotated = self._annotation = AnnotatedTree(names, lmld)
            return annotated

    @property
    def mirror_annotation(self) -> AnnotatedTree:
        """The Zhang–Shasha arrays of the tree's mirror image (every child
        list reversed), derived without building that tree."""
        try:
            return self._mirror_annotation
        except AttributeError:
            leftmost = self.annotation
            names, lmld = leftmost.labels, leftmost.lmld
            gp = self.general_post
            n = self.size
            mirror_names = [""] * (n + 1)
            mirror_lmld = [0] * (n + 1)
            # Mirrored postorder reverses preorder: the k-th node in
            # preorder (0-based) is number n - k.  A subtree spans the same
            # node count in both numberings, g - lmld[g] + 1 in the
            # leftmost one.
            m = n
            for b in self._preorder_numbers():
                g = gp[b]
                mirror_names[m] = names[g]
                mirror_lmld[m] = m - g + lmld[g]
                m -= 1
            annotated = self._mirror_annotation = AnnotatedTree(
                mirror_names, mirror_lmld
            )
            return annotated

    def _preorder_numbers(self) -> list[int]:
        """Binary postorder numbers in LC-RS (= general-tree) preorder."""
        left, right = self.left, self.right
        order = []
        stack = [self.size]
        while stack:
            b = stack.pop()
            order.append(b)
            child = right[b]
            if child:
                stack.append(child)
            child = left[b]
            if child:
                stack.append(child)
        return order


class RecordStore(dict):
    """``original index -> TreeCache`` over one interner, built on demand.

    ``store[i]`` builds tree ``i``'s record on first access and keeps it,
    so every view memoized on a record (bags, traversals, annotations)
    stays warm for the store's life.  A session keeps one per collection
    and a streaming engine one per stream (``trees`` may be a list that
    grows); the join driver, the searchers and every :class:`Verifier`
    over that collection read the same records.
    """

    __slots__ = ("trees", "interner")

    def __init__(self, trees: Sequence[Tree]):
        super().__init__()
        self.trees = trees
        self.interner = LabelInterner()

    def __missing__(self, index: int) -> TreeCache:
        record = self[index] = TreeCache(self.trees[index], self.interner)
        return record

    def built(self, view: str) -> int:
        """How many records have built the view named ``view`` (for
        example ``"annotation"`` or ``"label_bag"``)."""
        return sum(hasattr(record, "_" + view) for record in self.values())
