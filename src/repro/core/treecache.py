"""Per-tree flat-array precomputation shared by the PartSJ probe and insert
phases.

For every tree the join touches, :class:`TreeCache` materializes once the
LC-RS binary representation — *as parallel integer arrays, not as a node
object graph*.  Nodes are identified by their 1-based binary postorder
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
dictionaries, no per-node objects.  A :class:`~repro.tree.binary.BinaryNode`
object layer is still available through :attr:`binary` /
:attr:`binary_postorder` / :meth:`binary_number` for tests, ablation
paths and debugging, but it is built lazily on first access and the hot
paths never touch it.

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

from typing import Optional

from repro.core.intern import DEFAULT_INTERNER, LabelInterner
from repro.tree.binary import BinaryNode, BinaryTree
from repro.tree.node import Tree, TreeNode

__all__ = ["TreeCache"]


class TreeCache:
    """All derived structures PartSJ needs for one tree, as flat arrays.

    Attributes
    ----------
    tree:
        The original general tree.
    interner:
        The label interner the array ids refer to (the process-wide
        default unless one is passed, so independently built caches
        agree on ids).
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
    """

    __slots__ = (
        "tree",
        "interner",
        "size",
        "labels",
        "left",
        "right",
        "parent",
        "general_post",
        "internal",
        "_general_at",
        "_nodes",
        "_binary",
        "_number_of",
    )

    def __init__(self, tree: Tree, interner: Optional[LabelInterner] = None):
        self.tree = tree
        self.interner = DEFAULT_INTERNER if interner is None else interner
        intern = self.interner.intern
        # Fast path: most labels are already interned, so the hot loop
        # reads the id table directly and only falls back to intern() for
        # first-seen labels (which enforces the packing bound).
        known_ids = self.interner.get

        n = tree.size
        self.size = n
        labels = [0] * (n + 1)
        left = [0] * (n + 1)
        right = [0] * (n + 1)
        parent = [0] * (n + 1)
        gp = [0] * (n + 1)
        general_at: list[Optional[TreeNode]] = [None] * (n + 1)
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
        root = tree.root
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
            general_at[b] = node
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
        self._general_at = general_at
        self._nodes: Optional[list[Optional[BinaryNode]]] = None
        self._binary: Optional[BinaryTree] = None
        self._number_of: Optional[dict[int, int]] = None

    # -- fast array accessors ------------------------------------------------

    def incoming_code(self, number: int) -> int:
        """Incoming-edge category of node ``number``: 0 root, 1 left, 2 right."""
        p = self.parent[number]
        if p == 0:
            return 0
        return 1 if self.left[p] == number else 2

    def general_node_at(self, number: int) -> TreeNode:
        """The general-tree twin of binary postorder number ``number``."""
        node = self._general_at[number]
        assert node is not None
        return node

    # -- node-object compatibility layer (built lazily, never on hot paths) --

    def _materialize_nodes(self) -> list[Optional[BinaryNode]]:
        nodes = self._nodes
        if nodes is None:
            n = self.size
            general_at = self._general_at
            nodes = [None] * (n + 1)
            for b in range(1, n + 1):
                nodes[b] = BinaryNode(general_at[b].label)  # type: ignore[union-attr]
            left, right = self.left, self.right
            for b in range(1, n + 1):
                node = nodes[b]
                if left[b]:
                    node.set_left(nodes[left[b]])  # type: ignore[union-attr]
                if right[b]:
                    node.set_right(nodes[right[b]])  # type: ignore[union-attr]
            self._nodes = nodes
            # Identity -> number lookup; keys never ordered into output.
            self._number_of = {id(nodes[b]): b for b in range(1, n + 1)}  # repro: allow[determinism]
            tree = BinaryTree(nodes[n])  # type: ignore[arg-type]  # root is last
            # Postorder is known by construction; prime the tree's cache so
            # the compat layer costs one pass, not two.
            tree._postorder = nodes[1:]  # type: ignore[assignment]
            self._binary = tree
        return nodes

    @property
    def binary(self) -> BinaryTree:
        """The LC-RS tree as linked :class:`BinaryNode` objects (lazy)."""
        self._materialize_nodes()
        assert self._binary is not None
        return self._binary

    @property
    def binary_postorder(self) -> list[BinaryNode]:
        """Binary nodes in binary postorder (compat; lazy, same objects as
        :attr:`binary`)."""
        nodes = self._materialize_nodes()
        return nodes[1:]  # type: ignore[return-value]

    def general_postorder(self, node: BinaryNode) -> int:
        """1-based general-tree postorder number of ``node``'s general twin."""
        self._materialize_nodes()
        assert self._number_of is not None
        return self.general_post[self._number_of[id(node)]]

    def binary_number(self, node: BinaryNode) -> int:
        """1-based binary postorder number of ``node``."""
        self._materialize_nodes()
        assert self._number_of is not None
        return self._number_of[id(node)]

    def node_at_binary_number(self, number: int) -> BinaryNode:
        """Inverse of :meth:`binary_number` (1-based)."""
        nodes = self._materialize_nodes()
        node = nodes[number]
        assert node is not None
        return node
