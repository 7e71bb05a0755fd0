"""Rooted ordered labeled trees: the data model of the paper (Section 2).

A tree object is a hierarchy of :class:`TreeNode` instances.  Each node has a
string label (two nodes may share a label) and an ordered list of children.
:class:`Tree` wraps a tree object: it carries the collection-level identity
of the tree and caches its size.

A :class:`Tree` holds its tree in one of two forms:

- **nodes** — a :class:`TreeNode` graph.  Trees built in memory (the
  dataset generators, :mod:`repro.tree.edits`) start here.
- **bracket text** — :meth:`Tree.from_bracket`, through which every
  reader of trees goes (dataset files, snapshots, write-ahead logs,
  stream lines, worker pickles), validates the text, records the size
  and keeps the text in its canonical form, the one :meth:`to_bracket`
  writes.  No node exists yet.  The join, stream and search paths never
  read nodes: :class:`repro.core.treecache.TreeCache` builds its flat
  record straight from the text.  A tree held as text costs one string
  instead of two collector-tracked objects per node.

The first read of :attr:`Tree.root` parses the nodes, and from then on
the nodes are the tree and the text is dropped, so mutating them behaves
as for any node tree.

The classes here model *general* trees (unbounded fanout).  The binary
left-child/right-sibling representation used by the PartSJ join lives
only in :mod:`repro.core.treecache`, as flat arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import InvalidInputTypeError

__all__ = ["TreeNode", "Tree"]


class TreeNode:
    """A node of a rooted ordered labeled tree.

    Parameters
    ----------
    label:
        The node label.  Labels are plain strings; equality of labels is
        string equality.
    children:
        Optional iterable of child nodes, kept in order.
    """

    __slots__ = ("label", "children")

    def __init__(self, label: str, children: Optional[Iterable["TreeNode"]] = None):
        self.label = str(label)
        self.children: list[TreeNode] = list(children) if children is not None else []

    # -- construction ------------------------------------------------------

    def add_child(self, child: "TreeNode") -> "TreeNode":
        """Append ``child`` as the new rightmost child and return it."""
        self.children.append(child)
        return child

    def copy(self) -> "TreeNode":
        """Return a deep copy of the subtree rooted at this node."""
        return TreeNode(self.label, [child.copy() for child in self.children])

    # -- inspection --------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True when this node has no children."""
        return not self.children

    @property
    def degree(self) -> int:
        """Number of children (out-degree)."""
        return len(self.children)

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (iterative)."""
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def iter_preorder(self) -> Iterator["TreeNode"]:
        """Yield the nodes of this subtree in preorder (node before children)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            # Reversed so the leftmost child is popped (and yielded) first.
            stack.extend(reversed(node.children))

    def iter_postorder(self) -> Iterator["TreeNode"]:
        """Yield the nodes of this subtree in postorder (children before node)."""
        # Two-stack iterative postorder keeps this safe for very deep trees.
        stack: list[tuple[TreeNode, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    # -- comparison --------------------------------------------------------

    def structurally_equal(self, other: "TreeNode") -> bool:
        """True when both subtrees have identical shape and labels."""
        if not isinstance(other, TreeNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeNode):
            return NotImplemented
        return self.structurally_equal(other)

    # Nodes are mutable; identity hashing keeps them usable as dict keys for
    # per-node bookkeeping (postorder numbering tables and the like).
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode({self.label!r}, {len(self.children)} children)"


class Tree:
    """A tree object in a collection: its nodes or its bracket text, plus
    cached metadata (see the module docstring for the two forms).

    ``Tree`` instances are treated as immutable once constructed; mutating
    the underlying nodes after wrapping them invalidates the cached size.
    Use :meth:`Tree.copy` + :mod:`repro.tree.edits` to derive edited trees.
    """

    __slots__ = ("_root", "_size", "_text")

    def __init__(self, root: TreeNode):
        if not isinstance(root, TreeNode):
            raise InvalidInputTypeError(
                f"Tree root must be a TreeNode, got {type(root).__name__}"
            )
        self._root: Optional[TreeNode] = root
        self._size: Optional[int] = None
        self._text: Optional[str] = None

    @classmethod
    def _from_text(cls, text: str, size: int) -> "Tree":
        """A tree held as validated canonical bracket ``text`` of ``size``
        nodes (:func:`repro.tree.bracket.read_bracket` builds these)."""
        tree = cls.__new__(cls)
        tree._root = None
        tree._size = size
        tree._text = text
        return tree

    @property
    def root(self) -> TreeNode:
        """The root node; a tree held as text parses its nodes here, once.

        The size is then counted afresh on its next read, as for a tree
        built from nodes, so edits to the nodes made before it show.
        """
        root = self._root
        if root is None:
            from repro.tree.bracket import parse_nodes

            root = self._root = parse_nodes(self._text)
            self._text = None
            self._size = None
        return root

    @root.setter
    def root(self, node: TreeNode) -> None:
        self._root = node
        self._text = None
        self._size = None

    @property
    def text(self) -> Optional[str]:
        """The canonical bracket text while the tree holds no nodes, else
        ``None`` (see :meth:`to_bracket` for the text of any tree)."""
        return self._text

    # -- metadata ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of nodes; computed once and cached."""
        if self._size is None:
            self._size = self.root.subtree_size()
        return self._size

    def __len__(self) -> int:
        return self.size

    # -- traversal ---------------------------------------------------------

    def iter_preorder(self) -> Iterator[TreeNode]:
        """Preorder node iterator over the whole tree."""
        return self.root.iter_preorder()

    def iter_postorder(self) -> Iterator[TreeNode]:
        """Postorder node iterator over the whole tree."""
        return self.root.iter_postorder()

    def preorder_labels(self) -> list[str]:
        """Labels in preorder; the STR baseline's first traversal string."""
        return [node.label for node in self.iter_preorder()]

    def postorder_labels(self) -> list[str]:
        """Labels in postorder; the STR baseline's second traversal string."""
        return [node.label for node in self.iter_postorder()]

    def labels(self) -> list[str]:
        """All labels (preorder); convenience for histogram filters."""
        return self.preorder_labels()

    # -- construction ------------------------------------------------------

    def copy(self) -> "Tree":
        """Deep copy of the tree (a tree held as text shares the text)."""
        if self._text is not None:
            return Tree._from_text(self._text, self._size)
        return Tree(self.root.copy())

    @classmethod
    def from_bracket(cls, text: str) -> "Tree":
        """Read bracket notation, e.g. ``{a{b}{c{d}}}``, keeping the text.

        Delegates to :func:`repro.tree.bracket.read_bracket`.
        """
        from repro.tree.bracket import read_bracket

        return read_bracket(text)

    def to_bracket(self) -> str:
        """Serialize to bracket notation (inverse of :meth:`from_bracket`);
        a tree held as text returns that text."""
        if self._text is not None:
            return self._text
        from repro.tree.bracket import write_nodes

        return write_nodes(self.root)

    def __reduce__(self):
        # Pickle as bracket text: both directions are iterative, so a tree
        # of any depth crosses a spawn pool without a RecursionError.
        return (Tree.from_bracket, (self.to_bracket(),))

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        if self._text is not None or other._text is not None:
            # Canonical text is one-to-one with the tree, and comparing it
            # parses no node.
            return self.to_bracket() == other.to_bracket()
        return self.root.structurally_equal(other.root)

    __hash__ = None  # type: ignore[assignment]  # mutable content

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._text is not None:  # no node is parsed just to print
            return f"Tree(size={self.size}, text={self._text[:40]!r})"
        return f"Tree(size={self.size}, root={self.root.label!r})"
