"""Tests for the subgraph index and its probe walk (repro.core.index)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import InvertedSizeIndex, PostorderFilter, postorder_half_width
from repro.core.intern import (
    QueryInterner,
    grandchild_bits,
    screen_word,
    subgraph_bits,
    unpack_twig,
)
from repro.core.partition import extract_partition
from repro.core.subgraph import Subgraph
from repro.core.treecache import TreeCache
from repro.errors import InvalidParameterError
from repro.tree.node import Tree, TreeNode
from tests.conftest import LABELS, make_random_tree, trees

OWNER = 7


def distinct_label_tree(rng, size):
    """A random tree whose labels are all different, so a subgraph's root
    twig occurs at exactly one node of its own tree."""
    root = TreeNode("n0")
    nodes = [root]
    for k in range(1, size):
        nodes.append(rng.choice(nodes).add_child(TreeNode(f"n{k}")))
    return Tree(root)


def build_subgraphs(rng, size, delta):
    cache = TreeCache(distinct_label_tree(rng, size))
    return cache, extract_partition(cache, owner=OWNER, delta=delta)


def shifted(cache, offset):
    """The same tree, its general postorder numbers moved by ``offset``."""
    moved = copy.copy(cache)
    moved.general_post = [g + offset for g in cache.general_post]
    return moved


def single_index(tau, mode, cache, sub):
    index = InvertedSizeIndex(tau, mode)
    index.insert_all(cache.size, [sub])
    return index


def probe(index, cache, numbering="general", strict=False):
    """Walk ``index`` with ``cache``'s tree; (hits, tests, skips,
    screened), candidates."""
    candidates = []
    counts = index.probe(cache, numbering, strict, set(), candidates)
    return counts, candidates


class TestWindowArithmetic:
    def test_paper_window_shrinks_with_rank(self, rng):
        tau = 3
        cache, subs = build_subgraphs(rng, 30, 2 * tau + 1)
        for sub in subs:
            assert postorder_half_width(PostorderFilter.PAPER, tau, sub.rank) == (
                max(0, tau - sub.rank // 2)
            )
        # rank 1 gets the full window, the last rank gets zero.
        assert postorder_half_width(PostorderFilter.PAPER, tau, subs[0].rank) == tau
        assert postorder_half_width(PostorderFilter.PAPER, tau, subs[-1].rank) == 0

    def test_safe_window_is_constant(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 20, 2 * tau + 1)
        assert all(
            postorder_half_width(PostorderFilter.SAFE, tau, sub.rank) == tau
            for sub in subs
        )

    @pytest.mark.parametrize("mode", list(PostorderFilter))
    def test_probe_applies_each_window_rule(self, rng, mode):
        # Each subgraph alone in an index; its own tree probes with every
        # postorder number shifted by `offset`.  Labels are distinct, so
        # only the subgraph's own root can find it.
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            index = single_index(tau, mode, cache, sub)
            half = postorder_half_width(mode, tau, sub.rank)
            for offset in range(-tau - 1, tau + 2):
                (hits, tests, _, _), candidates = probe(
                    index, shifted(cache, offset)
                )
                found = mode is PostorderFilter.OFF or abs(offset) <= half
                assert hits == tests == int(found), (sub.rank, offset)
                assert candidates == ([OWNER] if found else [])


class TestInsertProbe:
    def test_subgraph_retrievable_at_every_window_key(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            index = single_index(tau, PostorderFilter.SAFE, cache, sub)
            for offset in range(-tau, tau + 1):
                assert probe(index, shifted(cache, offset))[1] == [OWNER]

    def test_probe_outside_window_misses(self, rng):
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 2 * tau + 1)
        index = single_index(tau, PostorderFilter.SAFE, cache, subs[0])
        for offset in (-tau - 1, tau + 1):
            assert probe(index, shifted(cache, offset)) == ((0, 0, 0, 0), [])

    def test_probe_with_actual_child_labels_finds_epsilon_twigs(self, rng):
        # A probe node may have real children where the stored twig has
        # epsilon (dangling bridging edges): the epsilon key variants
        # cover it.
        tau = 1
        for _ in range(20):
            cache, subs = build_subgraphs(rng, 15, 3)
            dangling = []
            for sub in subs:
                # An epsilon slot of the twig (id 0) over a real child.
                _, left, right = unpack_twig(sub.twig_key)
                root = sub.root_number
                if (not left and cache.left[root]) or (
                    not right and cache.right[root]
                ):
                    dangling.append(sub)
            for target in dangling:
                index = single_index(tau, PostorderFilter.SAFE, cache, target)
                assert probe(index, cache)[1] == [OWNER]
            if dangling:
                return
        pytest.fail("no partition with a dangling bridging edge")

    def test_wrong_label_never_returned(self, rng):
        # Labels the index has never seen get query-local ids, whose keys
        # match nothing stored.
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 3)
        index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
        index.insert_all(cache.size, subs)
        query = TreeCache(
            Tree.from_bracket("{no-such-label{x}{y{z}}{w}{v}{u}{t}{s}{r}"
                              "{q}{p}{o}{m}{k}}"),
            QueryInterner(cache.interner),
        )
        assert query.size == cache.size
        assert probe(index, query) == ((0, 0, 0, 0), [])

    def test_no_duplicates_in_probe_results(self, rng):
        # Each subgraph is stored once under its one key and a node's
        # search keys are duplicate-free, so a tree probing its own
        # partition hits every subgraph exactly once (at its root).
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 5)
        index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
        index.insert_all(cache.size, subs)
        (hits, tests, skips, screened), candidates = probe(index, cache)
        assert hits == len(subs)
        assert screened == 0
        # The first match makes the owner a candidate; the other hits of
        # the same pair are skipped without a match test.
        assert (tests, skips) == (1, len(subs) - 1)
        assert candidates == [OWNER]

    def test_off_mode_ignores_postorder(self, rng):
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 3)
        index = InvertedSizeIndex(tau, PostorderFilter.OFF)
        index.insert_all(cache.size, subs)
        (hits, _, _, _), candidates = probe(index, shifted(cache, 999_999))
        assert hits == len(subs)
        assert candidates == [OWNER]

    def test_checked_pairs_are_skipped(self, rng):
        tau = 1
        cache, subs = build_subgraphs(rng, 15, 3)
        index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
        index.insert_all(cache.size, subs)
        candidates = []
        counts = index.probe(cache, "general", False, {OWNER}, candidates)
        assert counts == (len(subs), 0, len(subs), 0)
        assert candidates == []


class TestOneWalk:
    """One walk reads the sizes ``[n - tau, n + tau]``: those up to ``n``
    under the configured rule, those above under the larger-side rule,
    where the indexed tree is the larger one."""

    @pytest.mark.parametrize("mode", list(PostorderFilter))
    def test_reads_only_the_sizes_within_tau(self, rng, mode):
        # The same partition filed under each size around the probing
        # tree's: only the sizes [n - tau, n + tau] are read.
        tau = 2
        cache, subs = build_subgraphs(rng, 20, 2 * tau + 1)
        for k in range(-tau - 2, tau + 3):
            index = InvertedSizeIndex(tau, mode)
            index.insert_all(cache.size + k, subs)
            assert probe(index, cache)[1] == (
                [OWNER] if abs(k) <= tau else []
            ), k

    @pytest.mark.parametrize("mode", list(PostorderFilter))
    def test_safe_window_above_whatever_the_configured_filter(self, rng, mode):
        # The published window shrinks with rank, but it does not hold when
        # the larger tree is the partitioned one, so every subgraph of a
        # larger size is found within the SAFE half-width tau (anywhere
        # when the layer is off) and nowhere beyond it.
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            for k in range(1, tau + 1):
                index = InvertedSizeIndex(tau, mode)
                index.insert_all(cache.size + k, [sub])
                for offset in range(-tau - 1, tau + 2):
                    found = mode is PostorderFilter.OFF or abs(offset) <= tau
                    assert probe(index, shifted(cache, offset))[1] == (
                        [OWNER] if found else []
                    ), (sub.rank, k, offset)

    @pytest.mark.parametrize("mode", [PostorderFilter.SAFE, PostorderFilter.PAPER])
    def test_no_window_above_under_binary_numbering(self, rng, mode):
        # Under binary numbering no constant window is sound when the
        # larger tree is the partitioned one: a subgraph filed far from
        # the node's number is found above n, and only there.
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for sub in subs:
            far = Subgraph(
                OWNER, cache, sub.root_number, sub.member_bits, sub.rank,
                sub.root_number + 99,
            )
            for k in (0, 1, tau):
                index = InvertedSizeIndex(tau, mode)
                index.insert_all(cache.size + k, [far])
                assert probe(index, cache, "binary")[1] == (
                    [OWNER] if k else []
                ), (sub.rank, k)

    def test_safe_matching_above_the_probing_tree(self):
        # {a{b}{c}} partitioned at tau 1 gives the subgraph (a) with a
        # dangling left edge.  A node "a" without children matches it
        # only under SAFE semantics, which the sizes above n always use.
        cache = TreeCache(Tree.from_bracket("{a{b}{c}}"))
        subs = extract_partition(cache, owner=OWNER, delta=3)
        root = [sub for sub in subs if sub.root_number == cache.size]
        assert len(root) == 1 and root[0].size == 1
        query = TreeCache(Tree.from_bracket("{a}"))
        for k, found_strict in ((0, False), (1, True)):
            index = InvertedSizeIndex(1, PostorderFilter.OFF)
            index.insert_all(query.size + k, root)
            assert probe(index, query, strict=False)[1] == [OWNER], k
            assert probe(index, query, strict=True)[1] == (
                [OWNER] if found_strict else []
            ), k


class TestNodeGate:
    def test_nodes_smaller_than_every_subgraph_are_not_visited(self):
        # One 4-node subgraph a(b, c, d): its depth-2 key is the twig
        # (a, b, epsilon) with c as the left-right grandchild.  Node a of
        # a(b, c, x) has that key and 4 nodes in its LC-RS subtree, so its
        # hit counts (and the screen rejects it: x is not d).  Node a of
        # a(b, c) has the key too, but only 3 nodes: it is never visited.
        index = whole_tree_index("{a{b}{c}{d}}")
        assert probe_bracket(index, "{a{b}{c}{x}}") == ((1, 1, 0, 1), [])
        assert probe_bracket(index, "{a{b}{c}}") == ((0, 0, 0, 0), [])

    def test_smallest_only_shrinks(self, rng):
        index = InvertedSizeIndex(2, PostorderFilter.SAFE)
        cache, subs = build_subgraphs(rng, 25, 5)
        small = min(sub.size for sub in subs)
        index.insert_all(25, subs)
        assert index.smallest == {25: small}
        index.insert_all(25, [max(subs, key=lambda sub: sub.size)])
        assert index.smallest == {25: small}


class TestDepthThreeScreen:
    """Each entry carries its member great-grandchildren; a hit whose
    node differs there is counted as ``screened`` and never matched."""

    def test_different_great_grandchild_is_screened(self):
        index = whole_tree_index("{a{b{c{d}}}}")
        assert probe_bracket(index, "{a{b{c{x}}}}") == ((1, 1, 0, 1), [])
        assert probe_bracket(index, "{a{b{c{d}}}}") == ((1, 1, 0, 0), [OWNER])

    @pytest.mark.parametrize("label", ["d", ""])
    def test_missing_great_grandchild_is_screened(self, label):
        # d moves from c's first child to c's next sibling: a, b and c
        # keep the depth-2 key, the left-left-left slot is empty.
        index = whole_tree_index("{a{b{c{%s}}}}" % label)
        assert probe_bracket(index, "{a{b{c}{%s}}}" % label) == (
            (1, 1, 0, 1), []
        )

    def test_every_great_grandchild_slot(self):
        # Node b's LC-RS children are c1 (first child) and e (next
        # sibling); its eight great-grandchildren are g1..g8, in slot
        # order.  A change in any one of them is screened.
        bracket = (
            "{r{b{c1{x1{g1}}{g2}}{c2{g3}}{g4}}{e{c3{g5}}{g6}}{f{g7}}{g8}}"
        )
        cache = TreeCache(Tree.from_bracket(bracket))
        labels, left, right = cache.labels, cache.left, cache.right
        b = cache.size - 1  # r's last binary child in postorder
        assert cache.interner.label(labels[b]) == "b"
        # All of b's LC-RS subtree: every node but r (slot 0 is unused).
        member = bytearray([0] + [1] * (cache.size - 1) + [0])
        _, screen, mask = subgraph_bits(labels, left, right, b, member)
        assert mask == (1 << 8 * 22) - 1
        assert screen == screen_word(
            grandchild_bits(labels, left, right, left[b]),
            grandchild_bits(labels, left, right, right[b]),
        )
        order = [
            cache.interner.label((screen >> 22 * k & (1 << 22) - 1) - 1)
            for k in range(8)
        ]
        assert order == ["g%d" % k for k in range(1, 9)]
        sub = Subgraph(OWNER, cache, b, member, 1, cache.general_post[b])
        index = InvertedSizeIndex(1, PostorderFilter.OFF)
        index.insert_all(cache.size, [sub])
        assert probe(index, cache) == ((1, 1, 0, 0), [OWNER])
        for k in range(1, 9):
            changed = bracket.replace("{g%d}" % k, "{zz}")
            assert probe_bracket(index, changed) == ((1, 1, 0, 1), []), k


SOUNDNESS_ALPHABETS = (["a"], ["a", "b"], ["", "x", "é"], LABELS)


def subtree_sizes(cache):
    """LC-RS subtree size of every binary postorder number."""
    sizes = [0] * (cache.size + 1)
    for b in range(1, cache.size + 1):
        sizes[b] = sizes[cache.left[b]] + sizes[cache.right[b]] + 1
    return sizes


@st.composite
def probe_cases(draw):
    labels = draw(st.sampled_from(SOUNDNESS_ALPHABETS))
    tau = draw(st.integers(min_value=1, max_value=3))
    strict = draw(st.booleans())
    forest = draw(st.lists(trees(max_size=30, labels=labels),
                           min_size=2, max_size=4))
    return tau, strict, forest


class TestGatesAreSound:
    @settings(max_examples=150, deadline=None)
    @given(probe_cases())
    def test_every_match_passes_the_gate_and_the_screen(self, case):
        # For every subgraph of every partition and every node of every
        # other tree: a match implies the node's LC-RS subtree holds the
        # subgraph and the node's screen word agrees with its screen.
        tau, strict, forest = case
        caches = [TreeCache(tree) for tree in forest]
        for owner, cache in enumerate(caches):
            if cache.size < 2 * tau + 1:
                continue
            for sub in extract_partition(cache, owner, 2 * tau + 1):
                _, screen, mask = subgraph_bits(
                    cache.labels, cache.left, cache.right,
                    sub.root_number, sub.member_bits,
                )
                for other, probing in enumerate(caches):
                    if other == owner:
                        continue
                    sizes = subtree_sizes(probing)
                    labels, left, right = (
                        probing.labels, probing.left, probing.right,
                    )
                    for b in range(1, probing.size + 1):
                        if not sub.matches_at_number(probing, b, strict):
                            continue
                        assert sizes[b] >= sub.size
                        word = screen_word(
                            grandchild_bits(labels, left, right, left[b]),
                            grandchild_bits(labels, left, right, right[b]),
                        )
                        assert word & mask == screen

    @settings(max_examples=100, deadline=None)
    @given(probe_cases())
    def test_the_walk_finds_exactly_the_matching_subgraphs(self, case):
        # A subgraph alone in an index, filed at the probing tree's size
        # (configured semantics) or one above it (SAFE semantics), with
        # the window off: the walk finds its owner iff it matches at some
        # node, so no gate loses a match and none adds one.
        tau, strict, forest = case
        caches = [TreeCache(tree) for tree in forest]
        for owner, cache in enumerate(caches):
            if cache.size < 2 * tau + 1:
                continue
            for sub in extract_partition(cache, owner, 2 * tau + 1):
                for other, probing in enumerate(caches):
                    if other == owner:
                        continue
                    for k, semantics in ((0, strict), (1, False)):
                        index = InvertedSizeIndex(tau, PostorderFilter.OFF)
                        index.insert_all(probing.size + k, [sub])
                        found = any(
                            sub.matches_at_number(probing, b, semantics)
                            for b in range(1, probing.size + 1)
                        )
                        assert probe(index, probing, strict=strict)[1] == (
                            [owner] if found else []
                        )


def whole_tree_index(bracket, tau=1):
    """An index holding one subgraph: the whole tree of ``bracket``."""
    cache = TreeCache(Tree.from_bracket(bracket))
    index = InvertedSizeIndex(tau, PostorderFilter.SAFE)
    index.insert_all(cache.size, extract_partition(cache, owner=OWNER, delta=1))
    return index


def probe_bracket(index, bracket):
    return probe(index, TreeCache(Tree.from_bracket(bracket)))


class TestDepthTwoKey:
    """The key holds the subgraph's member grandchildren, so a node whose
    grandchildren differ finds nothing and runs no match test."""

    def test_different_grandchild_label_is_not_a_hit(self):
        index = whole_tree_index("{a{b{c}}}")
        assert probe_bracket(index, "{a{b{x}}}") == ((0, 0, 0, 0), [])

    @pytest.mark.parametrize("label", ["c", ""])
    def test_missing_grandchild_is_not_a_hit(self, label):
        # The grandchild moves from b's first child to b's next sibling:
        # node a keeps the twig (a, b, epsilon) but has no left-left
        # grandchild.  A "" label has epsilon's id 0; the key stores id + 1.
        index = whole_tree_index("{a{b{%s}}}" % label)
        assert probe_bracket(index, "{a{b}{%s}}" % label) == ((0, 0, 0, 0), [])

    def test_empty_label_grandchild_is_found(self):
        index = whole_tree_index("{a{b{}}}")
        assert probe_bracket(index, "{a{b{}}}") == ((1, 1, 0, 0), [OWNER])


class TestEntryCountIndependentOfTau:
    def test_one_entry_per_subgraph_regardless_of_tau(self, rng):
        # PR 1 filed each subgraph under 2*tau+1 duplicated postorder keys;
        # the packed-key index stores it once and resolves the window at
        # probe time, so stored entries must not grow with tau.
        tree = make_random_tree(rng, 40)
        cache = TreeCache(tree)
        entry_counts = []
        for tau in (1, 2, 3, 5):
            delta = 2 * tau + 1
            index = InvertedSizeIndex(tau, postorder_filter="safe")
            index.insert_all(40, extract_partition(cache, owner=0, delta=delta))
            assert index.total_entries == index.total_subgraphs == delta
            assert index.counts == {40: delta}
            entry_counts.append(index.total_entries / delta)
        # Normalized per-subgraph storage is exactly 1 for every tau.
        assert entry_counts == [1.0] * len(entry_counts)

    def test_entry_count_matches_inserts_across_filters(self, rng):
        tau = 2
        cache, subs = build_subgraphs(rng, 25, 2 * tau + 1)
        for pfilter in (PostorderFilter.SAFE, PostorderFilter.PAPER,
                        PostorderFilter.OFF):
            index = InvertedSizeIndex(tau, pfilter)
            index.insert_all(cache.size, subs)
            stored = [
                entry
                for by_size in index.merged.values()
                for bucket in by_size.values()
                for entry in bucket.entries
            ]
            assert index.total_entries == len(stored) == len(subs)


class TestInvertedSizeIndex:
    def test_per_size_isolation(self, rng):
        index = InvertedSizeIndex(tau=1, postorder_filter="safe")
        cache_a, subs_a = build_subgraphs(rng, 12, 3)
        cache_b, subs_b = build_subgraphs(rng, 18, 3)
        index.insert_all(12, subs_a)
        index.insert_all(18, subs_b)
        assert index.counts == {12: 3, 18: 3}
        assert index.total_subgraphs == 6
        for by_size in index.merged.values():
            for size, bucket in by_size.items():
                owners = {entry[2].cache for entry in bucket.entries}
                assert owners == {cache_a if size == 12 else cache_b}

    def test_invalid_parameters(self):
        for tau in (-1, 1.5, True, "1"):
            with pytest.raises(InvalidParameterError):
                InvertedSizeIndex(tau=tau)
        with pytest.raises(InvalidParameterError):
            InvertedSizeIndex(tau=1, postorder_filter="nope")

    def test_postorder_filter_coercion(self):
        index = InvertedSizeIndex(tau=1, postorder_filter=PostorderFilter.PAPER)
        assert index.postorder_filter is PostorderFilter.PAPER
