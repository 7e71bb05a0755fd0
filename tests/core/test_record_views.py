"""Differential tests of the record's views (repro.core.treecache).

A :class:`TreeCache` derives every view the verifier and the baselines'
screens read — bags, traversal codes, Zhang–Shasha annotations in both
orientations — from its flat arrays.  Each view is compared here with a
definition computed from the :class:`Tree` itself: bags from a
``TreeNode`` walk, branch triples from the LC-RS object graph of
:func:`to_lcrs`, decoded traversals from ``Tree.preorder_labels`` /
``postorder_labels``, codes from their definition over the traversals
of records built from nodes and from text, and annotations from a
test-local postorder walk of the tree and of a test-local mirror.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core.intern import LabelInterner
from repro.core.treecache import TreeCache
from repro.ted.binary_branch import binary_branches
from repro.ted.string_edit import sequence_of
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.node import Tree, TreeNode
from tests.conftest import trees
from tests.tree.lcrs_reference import to_lcrs

# Label alphabets: one label, the usual four, and labels that stress the
# interner — the empty string (which shares epsilon's id 0), a space,
# unicode.
ALPHABETS = [["a"], list("abcd"), ["", " ", "a b", "é", "日本", "🌲"]]


def mirror(tree: Tree) -> Tree:
    """``tree`` with every child list reversed (iterative; any depth)."""
    twins = {}
    for node in tree.iter_postorder():
        twins[id(node)] = TreeNode(
            node.label, [twins[id(child)] for child in reversed(node.children)]
        )
    return Tree(twins[id(tree.root)])


def reference_annotation(tree: Tree):
    """``(labels, lmld, keyroots, leaf_keyroot)`` by definition.

    Nodes are numbered in general postorder; a node's leftmost leaf is
    its first child's, and the keyroots are the root plus every node
    with a left sibling.
    """
    order = list(tree.iter_postorder())
    number = {id(node): i for i, node in enumerate(order, start=1)}
    n = len(order)
    labels = [""] + [node.label for node in order]
    lmld = [0] * (n + 1)
    keyroots = [n]
    for i, node in enumerate(order, start=1):
        children = node.children
        lmld[i] = lmld[number[id(children[0])]] if children else i
        keyroots.extend(number[id(child)] for child in children[1:])
    leaf_keyroot = [0] * (n + 1)
    for k in keyroots:
        leaf_keyroot[lmld[k]] = k
    return labels, lmld, sorted(keyroots), leaf_keyroot


def code_of(ids) -> int:
    """A traversal's code by definition: position ``k`` at bit ``32 * k``."""
    return sum(label << (32 * k) for k, label in enumerate(ids))


def check_views(tree: Tree) -> None:
    record = TreeCache(tree, LabelInterner())
    name = record.interner.label
    walk = list(tree.iter_preorder())

    assert {name(k): v for k, v in record.label_bag.items()} == Counter(
        node.label for node in walk
    )
    assert record.degree_bag == Counter(len(node.children) for node in walk)

    def label_of(node):
        return "" if node is None else node.label

    lcrs_branches = Counter(
        (node.label, label_of(node.left), label_of(node.right))
        for node in to_lcrs(tree).postorder()
    )
    assert {
        (name(a), name(b), name(c)): k
        for (a, b, c), k in record.branch_bag.items()
    } == lcrs_branches == binary_branches(tree)

    preorder = sequence_of(record.preorder_code, record.size)
    postorder = sequence_of(record.postorder_code, record.size)
    assert [name(i) for i in preorder] == tree.preorder_labels()
    assert [name(i) for i in postorder] == tree.postorder_labels()
    intern = record.interner.intern  # every label is interned already
    preorder_ids = [intern(label) for label in tree.preorder_labels()]
    postorder_ids = [intern(label) for label in tree.postorder_labels()]
    from_text = TreeCache(Tree.from_bracket(tree.to_bracket()), record.interner)
    for built in (from_text, record):
        assert built.preorder_code == code_of(preorder_ids)
        assert built.postorder_code == code_of(postorder_ids)

    for view, shape in (
        (record.annotation, tree), (record.mirror_annotation, mirror(tree))
    ):
        assert view.size == tree.size
        assert (
            view.labels, view.lmld, view.keyroots, view.leaf_keyroot
        ) == reference_annotation(shape), shape is tree
    assert record.annotation is record.annotation  # memoized
    assert record.mirror_annotation is record.mirror_annotation


def chain(depth: int) -> Tree:
    root = node = TreeNode("c")
    for _ in range(depth - 1):
        node = node.add_child(TreeNode("c"))
    return Tree(root)


def comb(teeth: int, spine_first: bool) -> Tree:
    """A spine with one leaf per level, the spine leftmost or rightmost."""
    root = node = TreeNode("s")
    for k in range(teeth):
        spine, leaf = TreeNode("s"), TreeNode("l" if k % 3 else "m")
        node.children = [spine, leaf] if spine_first else [leaf, spine]
        node = spine
    return Tree(root)


def relabel(tree: Tree, alphabet: list[str]) -> Tree:
    """``tree`` with labels mapped into ``alphabet`` (shape kept)."""
    index = {label: k for k, label in enumerate(sorted(set(tree.labels())))}
    twins = {}
    for node in tree.iter_postorder():
        twins[id(node)] = TreeNode(
            alphabet[index[node.label] % len(alphabet)],
            [twins[id(child)] for child in node.children],
        )
    return Tree(twins[id(tree.root)])


SHAPES = {
    "single node": lambda: Tree(TreeNode("a")),
    "empty label root": lambda: Tree(TreeNode("", [TreeNode(""), TreeNode("x")])),
    "5000-deep chain": lambda: chain(5000),
    "2000-leaf fan": lambda: Tree(
        TreeNode("r", [TreeNode("abcd"[k % 4]) for k in range(2000)])
    ),
    "left comb": lambda: comb(250, spine_first=True),
    "right comb": lambda: comb(250, spine_first=False),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_views_on_shapes(shape):
    check_views(SHAPES[shape]())


@pytest.mark.parametrize("alphabet", range(len(ALPHABETS)))
@given(tree=trees(max_size=40))
@settings(max_examples=60, deadline=None)
def test_views_on_random_trees(alphabet, tree):
    check_views(relabel(tree, ALPHABETS[alphabet]))


@given(trees(max_size=9, labels=ALPHABETS[2]), trees(max_size=9, labels=ALPHABETS[2]))
@settings(max_examples=60, deadline=None)
def test_mirrored_annotation_is_a_ted_isometry(t1, t2):
    interner = LabelInterner()
    r1, r2 = TreeCache(t1, interner), TreeCache(t2, interner)
    leftmost = zhang_shasha(r1.annotation, r2.annotation)
    assert leftmost == zhang_shasha(
        r1.mirror_annotation, r2.mirror_annotation
    )
    assert leftmost == zhang_shasha(t1, t2)


@pytest.mark.parametrize("spine_first", [True, False])
def test_mirrored_annotation_is_a_ted_isometry_on_combs(spine_first):
    r1 = TreeCache(comb(12, spine_first))
    r2 = TreeCache(comb(11, not spine_first))
    assert zhang_shasha(r1.annotation, r2.annotation) == zhang_shasha(
        r1.mirror_annotation, r2.mirror_annotation
    )
