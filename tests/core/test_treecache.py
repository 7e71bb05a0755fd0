"""Tests for the per-tree flat record (repro.core.treecache).

The arrays are checked against :func:`repro.tree.lcrs.to_lcrs`, the
independent node-object definition of the LC-RS transform (paper
Figure 4): its binary postorder numbers the nodes exactly as the record
does.  The views are checked in ``test_record_views.py``.
"""

from repro.core.treecache import RecordStore, TreeCache
from repro.tree.lcrs import to_lcrs
from repro.tree.node import Tree
from tests.conftest import make_random_tree


def lcrs_numbering(tree: Tree):
    """``(postorder nodes, number_of)`` of the LC-RS object graph."""
    nodes = to_lcrs(tree).postorder()
    number_of = {id(node): b for b, node in enumerate(nodes, start=1)}
    return nodes, number_of


class TestTreeCache:
    def test_binary_matches_standalone_transform(self, rng):
        tree = make_random_tree(rng, 25)
        cache = TreeCache(tree)
        assert cache.size == 25
        nodes, number_of = lcrs_numbering(tree)
        label = cache.interner.label
        for b, node in enumerate(nodes, start=1):
            assert label(cache.labels[b]) == node.label
            for child, number in ((node.left, cache.left[b]),
                                  (node.right, cache.right[b])):
                assert number == (0 if child is None else number_of[id(child)])
            parent = node.parent
            assert cache.parent[b] == (0 if parent is None else number_of[id(parent)])

    def test_binary_numbers_are_a_bijection(self, rng):
        tree = make_random_tree(rng, 30)
        cache = TreeCache(tree)
        # Every non-root node is exactly one node's left or right child,
        # and ``parent`` inverts both child arrays.
        children = sorted(c for c in cache.left[1:] + cache.right[1:] if c)
        assert children == list(range(1, 30))
        for b in range(1, 31):
            for child in (cache.left[b], cache.right[b]):
                if child:
                    assert child < b  # postorder: children first
                    assert cache.parent[child] == b

    def test_general_postorder_matches_general_traversal(self):
        tree = Tree.from_bracket("{a{b{d}{e}}{c}}")
        cache = TreeCache(tree)
        # General postorder: d=1, e=2, b=3, c=4, a=5.
        label = cache.interner.label
        by_number = {
            cache.general_post[b]: label(cache.labels[b])
            for b in range(1, cache.size + 1)
        }
        assert by_number == {1: "d", 2: "e", 3: "b", 4: "c", 5: "a"}

    def test_general_postorder_is_a_permutation(self, rng):
        tree = make_random_tree(rng, 40)
        cache = TreeCache(tree)
        assert sorted(cache.general_post[1:]) == list(range(1, 41))

    def test_root_has_max_number_in_both_orders(self, rng):
        tree = make_random_tree(rng, 20)
        cache = TreeCache(tree)
        nodes, _ = lcrs_numbering(tree)
        assert nodes[-1].parent is None  # the LC-RS root is numbered 20
        assert cache.parent[20] == 0
        assert cache.general_post[20] == 20

    def test_binary_and_general_numbering_can_differ(self):
        # {a{b{x}}{c}}: general postorder x=1,b=2,c=3,a=4.
        # Binary postorder: x's subtree... c comes before x's parent chain.
        tree = Tree.from_bracket("{a{b{x}}{c}}")
        cache = TreeCache(tree)
        label = cache.interner.label
        pairs = {
            label(cache.labels[b]): (b, cache.general_post[b])
            for b in range(1, cache.size + 1)
        }
        assert pairs["a"] == (4, 4)
        # The two numberings agree on the root but differ somewhere else.
        assert any(b != g for b, g in pairs.values())


class TestRecordStore:
    def test_builds_each_record_once_over_one_interner(self, rng):
        trees = [make_random_tree(rng, 6) for _ in range(3)]
        store = RecordStore(trees)
        assert len(store) == 0
        first = store[1]
        assert store[1] is first and len(store) == 1
        assert first.labels == TreeCache(trees[1], store.interner).labels
        assert store[2].interner is first.interner is store.interner

    def test_sees_a_growing_tree_list(self):
        trees = [Tree.from_bracket("{a}")]
        store = RecordStore(trees)
        trees.append(Tree.from_bracket("{b{c}}"))
        assert store[1].size == 2

    def test_counts_built_annotations(self, rng):
        store = RecordStore([make_random_tree(rng, 5) for _ in range(3)])
        store[0]
        store[1].annotation
        store[2].mirror_annotation  # builds the leftmost one too
        assert store.built("annotation") == 2
