"""Tests for the RTED-style orientation over tree records.

A record's mirrored annotation stands for the tree with every child list
reversed; :func:`repro.ted.zhang_shasha.oriented` runs the orientation
with the smaller keyroot-weight product, and :func:`repro.ted.ted` is
the unbounded DP on that orientation.  The mirror here is a test-local
definition, independent of the record's derivation.
"""

from hypothesis import given, settings

from repro.core.treecache import TreeCache
from repro.ted.api import ted
from repro.ted.zhang_shasha import MIRROR_SIZE_CUTOFF, oriented, zhang_shasha
from repro.tree.node import Tree, TreeNode
from tests.conftest import make_random_tree, trees


def mirror(tree: Tree) -> Tree:
    """``tree`` with every child list reversed (iterative; any depth)."""
    twins = {}
    for node in tree.iter_postorder():
        twins[id(node)] = TreeNode(
            node.label, [twins[id(child)] for child in reversed(node.children)]
        )
    return Tree(twins[id(tree.root)])


def weights(tree: Tree) -> tuple[int, int]:
    """Keyroot weights of the (leftmost, mirrored) annotations."""
    record = TreeCache(tree)
    return (
        record.annotation.keyroot_weight(),
        record.mirror_annotation.keyroot_weight(),
    )


class TestMirror:
    def test_children_reversed_recursively(self):
        tree = Tree.from_bracket("{a{b{x}{y}}{c}}")
        view = TreeCache(tree).mirror_annotation
        reversed_tree = Tree.from_bracket("{a{c}{b{y}{x}}}")
        assert view.labels[1:] == reversed_tree.postorder_labels()
        assert view.lmld == TreeCache(reversed_tree).annotation.lmld

    @given(trees(max_size=14))
    def test_involution(self, tree):
        # Mirroring the mirror image gives the tree's own annotation back.
        view = TreeCache(mirror(tree)).mirror_annotation
        own = TreeCache(tree).annotation
        assert (view.labels, view.lmld) == (own.labels, own.lmld)

    @given(trees(max_size=9), trees(max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_mirroring_is_a_ted_isometry(self, t1, t2):
        r1, r2 = TreeCache(t1), TreeCache(t2)
        assert zhang_shasha(t1, t2) == zhang_shasha(
            r1.mirror_annotation, r2.mirror_annotation
        )

    def test_deep_tree_mirroring(self):
        chain = "{x" * 3000 + "}" * 3000
        view = TreeCache(Tree.from_bracket(chain)).mirror_annotation
        assert view.size == 3000
        assert view.keyroots == [3000]


class TestDecompositionCosts:
    def test_subtree_first_comb_prefers_left_orientation(self):
        # Children ordered (subtree, leaf): only the trailing leaves have a
        # left sibling, so the keyroots are small and the plain (leftmost
        # path) Zhang-Shasha decomposition is cheap.
        comb = "{a{a{a{a{a}{l}}{l}}{l}}{l}}"
        left, right = weights(Tree.from_bracket(comb))
        assert left < right

    def test_leaf_first_comb_prefers_mirrored_orientation(self):
        # Children ordered (leaf, subtree): every big subtree has a left
        # sibling and becomes a keyroot — the adversarial case for plain
        # Zhang-Shasha, fixed by mirroring (RTED's robustness scenario).
        comb = "{a{l}{a{l}{a{l}{a}}}}"
        left, right = weights(Tree.from_bracket(comb))
        assert right < left

    def test_costs_factorize_over_keyroot_weights(self):
        # The rule compares weight(T1) * weight(T2) per orientation: a
        # leaf-first comb above the size cutoff runs mirrored, its
        # subtree-first twin (the same comb mirrored) stays leftmost.
        leaf_first = "{a" + "{l}{a" * 9 + "}" * 9 + "}"
        tree = Tree.from_bracket(leaf_first)
        assert tree.size >= MIRROR_SIZE_CUTOFF
        r1, r2 = TreeCache(tree), TreeCache(tree.copy())
        assert oriented(r1, r2) == (r1.mirror_annotation, r2.mirror_annotation)
        m1, m2 = TreeCache(mirror(tree)), TreeCache(mirror(tree))
        assert oriented(m1, m2) == (m1.annotation, m2.annotation)
        # Below the cutoff on both sides, no mirrored annotation is built.
        small = TreeCache(Tree.from_bracket("{a{l}{a{l}{a}}}"))
        assert oriented(small, small) == (small.annotation, small.annotation)
        assert not hasattr(small, "_mirror_annotation")


class TestHybrid:
    @given(trees(max_size=10), trees(max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_zhang_shasha(self, t1, t2):
        assert ted(t1, t2) == zhang_shasha(t1, t2)

    def test_randomized_equivalence(self, rng):
        for _ in range(30):
            t1 = make_random_tree(rng, rng.randint(1, 30))
            t2 = make_random_tree(rng, rng.randint(1, 30))
            assert ted(t1, t2) == zhang_shasha(t1, t2)

    def test_custom_rename_cost_forwarded(self):
        free = lambda a, b: 0
        t1 = Tree.from_bracket("{a{b}}")
        t2 = Tree.from_bracket("{x{y}}")
        assert ted(t1, t2, rename_cost=free) == 0
