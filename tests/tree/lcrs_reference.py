"""The object LC-RS layer: the reference for ``TreeCache``'s arrays.

Knuth's left-child/right-sibling transformation (paper Section 3.1,
Figure 4) maps a general tree to a binary tree whose ``left`` pointer
leads to a node's leftmost child and whose ``right`` pointer leads to
its next sibling.  The library holds that binary form only as
:class:`repro.core.treecache.TreeCache`'s flat arrays; this module keeps
it as a graph of node objects, built by a plain walk over the general
tree, so the tests can check the arrays (postorder numbers, child and
parent links, incoming-edge categories) and the frozen reference engine
(``tests/core/_legacy_candidates.py``) against it.

- A node's *incoming* edge is a **left** edge (it hangs off its parent's
  ``left`` pointer: the parent's leftmost child in the general tree), a
  **right** edge (the parent's ``right`` pointer: the parent's next
  sibling) or none at the root; ``TreeCache.incoming_code`` numbers them
  0 (root), 1 (left) and 2 (right).
- Postorder numbers are 1-based over the binary postorder (left subtree,
  right subtree, node), the numbers shown next to the nodes in the
  paper's Figure 7.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional

from repro.errors import InvalidInputTypeError, TreeFormatError
from repro.tree.node import Tree, TreeNode


class EdgeKind(enum.Enum):
    """Category of a node's incoming edge in an LC-RS binary tree."""

    ROOT = "root"  # no incoming edge: the node is the tree root
    LEFT = "left"  # incoming from the parent's left (leftmost-child) pointer
    RIGHT = "right"  # incoming from the parent's right (next-sibling) pointer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeKind.{self.name}"


class BinaryNode:
    """A node of an LC-RS binary tree.

    Attributes
    ----------
    label:
        Node label, copied unchanged from the general tree (Knuth's
        transformation never alters labels).
    left / right:
        The two outgoing pointers, or ``None``.
    parent:
        Back-pointer to the parent node (``None`` at the root).  Maintained
        by :meth:`set_left` / :meth:`set_right`.
    """

    __slots__ = ("label", "left", "right", "parent")

    def __init__(self, label: str):
        self.label = str(label)
        self.left: Optional[BinaryNode] = None
        self.right: Optional[BinaryNode] = None
        self.parent: Optional[BinaryNode] = None

    # -- construction ------------------------------------------------------

    def set_left(self, child: Optional["BinaryNode"]) -> Optional["BinaryNode"]:
        """Attach ``child`` on the left pointer (maintains parent links)."""
        self.left = child
        if child is not None:
            child.parent = self
        return child

    def set_right(self, child: Optional["BinaryNode"]) -> Optional["BinaryNode"]:
        """Attach ``child`` on the right pointer (maintains parent links)."""
        self.right = child
        if child is not None:
            child.parent = self
        return child

    # -- inspection --------------------------------------------------------

    @property
    def incoming(self) -> EdgeKind:
        """The category of this node's incoming edge (Section 3.1)."""
        if self.parent is None:
            return EdgeKind.ROOT
        if self.parent.left is self:
            return EdgeKind.LEFT
        return EdgeKind.RIGHT

    def subtree_size(self) -> int:
        """Number of nodes in the binary subtree rooted here."""
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return count

    def iter_postorder(self) -> Iterator["BinaryNode"]:
        """Yield nodes of this binary subtree in (left, right, node) order."""
        stack: list[tuple[BinaryNode, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            if node.right is not None:
                stack.append((node.right, False))
            if node.left is not None:
                stack.append((node.left, False))

    def iter_preorder(self) -> Iterator["BinaryNode"]:
        """Yield nodes of this binary subtree in (node, left, right) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def structurally_equal(self, other: "BinaryNode") -> bool:
        """True when both binary subtrees have identical shape and labels."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is None and b is None:
                continue
            if a is None or b is None or a.label != b.label:
                return False
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryNode({self.label!r})"


class BinaryTree:
    """An LC-RS binary tree with cached postorder numbering.

    The numbering is 1-based over the *binary* postorder traversal (left
    subtree, right subtree, node), matching the numbers shown next to the
    nodes in the paper's Figure 7.
    """

    __slots__ = ("root", "_postorder", "_number_of")

    def __init__(self, root: BinaryNode):
        if not isinstance(root, BinaryNode):
            raise InvalidInputTypeError(
                f"BinaryTree root must be a BinaryNode, got {type(root).__name__}"
            )
        self.root = root
        self._postorder: Optional[list[BinaryNode]] = None
        self._number_of: Optional[dict[BinaryNode, int]] = None

    @property
    def size(self) -> int:
        """Total number of nodes (equals the general tree's node count)."""
        return len(self.postorder())

    def __len__(self) -> int:
        return self.size

    def postorder(self) -> list[BinaryNode]:
        """The nodes in binary postorder; computed once and cached."""
        if self._postorder is None:
            self._postorder = list(self.root.iter_postorder())
        return self._postorder

    def postorder_number(self, node: BinaryNode) -> int:
        """1-based postorder number of ``node`` (Figure 7's parenthesised ids)."""
        if self._number_of is None:
            self._number_of = {
                n: i for i, n in enumerate(self.postorder(), start=1)
            }
        return self._number_of[node]

    def iter_postorder(self) -> Iterator[BinaryNode]:
        """Iterate nodes in binary postorder."""
        return iter(self.postorder())

    def iter_preorder(self) -> Iterator[BinaryNode]:
        """Iterate nodes in binary preorder."""
        return self.root.iter_preorder()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryTree):
            return NotImplemented
        return self.root.structurally_equal(other.root)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryTree(size={self.size}, root={self.root.label!r})"


def to_lcrs(tree: Tree) -> BinaryTree:
    """Return the LC-RS binary representation of ``tree``.

    The conversion is iterative so arbitrarily deep trees are safe.
    """
    binary_root = BinaryNode(tree.root.label)
    # Each work item links a general node (whose children we still need to
    # wire) to its already-created binary twin.
    stack: list[tuple[TreeNode, BinaryNode]] = [(tree.root, binary_root)]
    while stack:
        general, binary = stack.pop()
        previous: BinaryNode | None = None
        for child in general.children:
            twin = BinaryNode(child.label)
            if previous is None:
                binary.set_left(twin)  # leftmost child
            else:
                previous.set_right(twin)  # next sibling
            stack.append((child, twin))
            previous = twin
    return BinaryTree(binary_root)


def from_lcrs(binary: BinaryTree) -> Tree:
    """Invert :func:`to_lcrs`.

    Raises
    ------
    TreeFormatError
        If the binary root has a right child: a general tree's root has no
        sibling, so such a binary tree is not a valid LC-RS image.
    """
    if binary.root.right is not None:
        raise TreeFormatError(
            "binary root has a right (sibling) pointer; "
            "not a valid LC-RS image of a single tree"
        )
    general_root = TreeNode(binary.root.label)
    # Work items pair a binary node whose left pointer is unprocessed with
    # the general-tree node that is its twin.  Sibling chains are unrolled
    # inline so the loop visits each binary node exactly once.
    stack: list[tuple[BinaryNode, TreeNode]] = [(binary.root, general_root)]
    while stack:
        bnode, gnode = stack.pop()
        sibling = bnode.left  # leftmost child of gnode, then its sibling chain
        while sibling is not None:
            child = gnode.add_child(TreeNode(sibling.label))
            stack.append((sibling, child))
            sibling = sibling.right
    return Tree(general_root)


def validate_binary_tree(binary: BinaryTree) -> None:
    """Raise :class:`TreeFormatError` on broken parent links or sharing."""
    seen: set[int] = set()
    stack = [binary.root]
    if binary.root.parent is not None:
        raise TreeFormatError("binary root must not have a parent pointer")
    while stack:
        node = stack.pop()
        ident = id(node)
        if ident in seen:
            raise TreeFormatError(
                f"binary node {node.label!r} is reachable more than once"
            )
        seen.add(ident)
        for child in (node.left, node.right):
            if child is None:
                continue
            if child.parent is not node:
                raise TreeFormatError(
                    f"binary node {child.label!r} has a stale parent pointer"
                )
            stack.append(child)
