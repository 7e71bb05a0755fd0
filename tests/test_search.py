"""Tests for similarity search (repro.search, repro.stream.searcher)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.join import PartSJConfig
from repro.errors import InvalidInputTypeError, InvalidParameterError
from repro.search import SimilaritySearcher
from repro.session import TreeCollection
from repro.stream import StreamingJoin
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.edits import random_script
from repro.tree.node import Tree
from tests.conftest import LABELS, make_cluster_forest, make_random_tree
from tests.core.test_join_properties import SOUND_CONFIGS, clustered_forests


def brute_force_search(query, trees, tau):
    return {
        i for i, tree in enumerate(trees)
        if zhang_shasha(query, tree) <= tau
    }


def search(query, trees, tau):
    """A one-shot session's search of ``trees``."""
    return TreeCollection.from_trees(trees).search(query, tau).run()


class TestSimilaritySearch:
    def test_simple_hit(self):
        trees = [Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{x{y{z}}}")]
        hits = search(Tree.from_bracket("{a{b}}"), trees, 1)
        assert [(h.index, h.distance) for h in hits] == [(0, 1)]

    def test_matches_brute_force(self, rng):
        trees = make_cluster_forest(
            rng, clusters=4, cluster_size=3, base_size=9, max_edits=3
        )
        for _ in range(8):
            query = trees[rng.randrange(len(trees))]
            for tau in (0, 1, 2, 3):
                expected = brute_force_search(query, trees, tau)
                hits = search(query, trees, tau)
                assert {h.index for h in hits} == expected
                for hit in hits:
                    assert hit.distance == zhang_shasha(query, trees[hit.index])

    def test_query_larger_and_smaller_than_collection(self, rng):
        trees = [make_random_tree(rng, size) for size in (3, 6, 9, 12)]
        for query_size in (2, 7, 14):
            query = make_random_tree(rng, query_size)
            for tau in (1, 3):
                expected = brute_force_search(query, trees, tau)
                got = {h.index for h in search(query, trees, tau)}
                assert got == expected

    def test_hits_sorted_by_index(self, rng):
        trees = make_cluster_forest(
            rng, clusters=2, cluster_size=4, base_size=8, max_edits=1
        )
        hits = search(trees[0], trees, 3)
        indices = [h.index for h in hits]
        assert indices == sorted(indices)

    def test_empty_collection(self):
        assert search(Tree.from_bracket("{a}"), [], 2) == []


class TestSearcherReuse:
    def test_many_queries_one_index(self, rng):
        trees = make_cluster_forest(
            rng, clusters=3, cluster_size=3, base_size=10, max_edits=2
        )
        searcher = TreeCollection.from_trees(trees).searcher(2)
        for query in trees[:5]:
            expected = brute_force_search(query, trees, 2)
            assert {h.index for h in searcher.search(query)} == expected

    def test_paper_config_variant(self, rng):
        trees = make_cluster_forest(
            rng, clusters=2, cluster_size=4, base_size=10, max_edits=2
        )
        searcher = TreeCollection.from_trees(trees).searcher(
            1, PartSJConfig(semantics="paper", postorder_filter="safe")
        )
        for query in trees[:4]:
            assert {h.index for h in searcher.search(query)} == (
                brute_force_search(query, trees, 1)
            )

    def test_paper_semantics_find_larger_trees(self):
        # The query is the tree with D deleted.  MaxMinSize cuts the tree
        # into {c2,a2,b2}, {c1,a1,b1} and {P,S,D,R}; under PAPER matching
        # that one delete breaks all three (c1's incoming edge turns from
        # left to right, c2's empty right slot gets R, D is missing).
        tree = Tree.from_bracket("{P{S}{D{c1{a1}{b1}}{c2{a2}{b2}}}{R}}")
        query = Tree.from_bracket("{P{S}{c1{a1}{b1}}{c2{a2}{b2}}{R}}")
        config = PartSJConfig(semantics="paper", postorder_filter="safe")
        batch = TreeCollection.from_trees([tree]).searcher(1, config)
        assert hit_list(batch.search(query)) == [(0, 1)]
        join = StreamingJoin(1, config=config)
        join.add(tree)
        assert hit_list(join.searcher().search(query)) == [(0, 1)]

    @pytest.mark.parametrize(
        "config, bracket, query_bracket",
        [
            (PartSJConfig.paper(), "{b{c{a}}}", "{b{c}}"),
            (
                PartSJConfig(
                    semantics="paper", postorder_filter="paper",
                    postorder_numbering="binary",
                ),
                "{b{c{a}}}", "{b{c}}",
            ),
            (
                PartSJConfig(postorder_numbering="binary"),
                "{a{c{d}{d}}{c{c}}}", "{a{d}{d}{c{c}}}",
            ),
        ],
        ids=["paper", "paper-binary", "binary"],
    )
    def test_larger_side_window_holds(self, config, bracket, query_bracket):
        # tau 1 cuts the chain into its three nodes, whose published
        # windows are 1, 0 and 0 wide (a, c, b).  Deleting the leaf a
        # moves c and b one place down in either postorder, out of theirs.
        # In the bushy tree, deleting the first c moves its two d children
        # two places in binary (LC-RS) postorder: no window of width tau
        # holds there.  The larger side uses a window that holds.
        tree = Tree.from_bracket(bracket)
        query = Tree.from_bracket(query_bracket)
        batch = TreeCollection.from_trees([tree]).searcher(1, config)
        assert hit_list(batch.search(query)) == [(0, 1)]
        join = StreamingJoin(1, config=config)
        join.add(tree)
        assert hit_list(join.searcher().search(query)) == [(0, 1)]
        assert [p.key() for p in join.add(query)] == [(0, 1)]

    def test_negative_tau_rejected(self):
        trees = [Tree.from_bracket("{a}")]
        with pytest.raises(InvalidParameterError):
            SimilaritySearcher(TreeCollection.from_trees(trees), tau=-1)
        # A searcher reads a session's preparation; a plain list has none.
        with pytest.raises(InvalidInputTypeError, match="TreeCollection"):
            SimilaritySearcher(trees, tau=1)


def brute_force_hits(query, trees, tau):
    """``(index, exact distance)`` of every tree within ``tau``."""
    hits = []
    for i, tree in enumerate(trees):
        distance = zhang_shasha(query, tree)
        if distance <= tau:
            hits.append((i, distance))
    return hits


def hit_list(hits):
    return [(h.index, h.distance) for h in hits]


def fuzz_queries(rng, forest, tau):
    """Forest trees, edited near-copies, trees too small to partition,
    trees larger than every tree, and trees with labels the forest lacks."""
    pick = forest[rng.randrange(len(forest))]
    edits = rng.randint(0, tau + 1)
    return [
        pick,
        random_script(pick, edits, rng, LABELS)[0],
        make_random_tree(rng, rng.randint(1, 2 * tau + 1)),
        make_random_tree(rng, max(t.size for t in forest) + rng.randint(1, tau + 1)),
        random_script(pick, edits, rng, ["a", "novel", "other"])[0],
    ]


@given(
    forest=clustered_forests(),
    tau=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_batch_and_stream_searchers_equal_brute_force(forest, tau, seed):
    rng = random.Random(seed)
    queries = fuzz_queries(rng, forest, tau)
    half = len(forest) // 2
    for config in SOUND_CONFIGS:
        join = StreamingJoin(tau, config=config)
        stream = join.searcher()
        join.add_many(forest[:half])
        for query in queries:
            assert hit_list(stream.search(query)) == brute_force_hits(
                query, forest[:half], tau
            ), config
        join.add_many(forest[half:])
        for query in queries:
            truth = brute_force_hits(query, forest, tau)
            # A fresh session per query: its first search is the one that
            # builds the records of the unindexed trees.
            batch = TreeCollection.from_trees(forest).searcher(tau, config)
            assert hit_list(batch.search(query)) == truth, config
            assert hit_list(stream.search(query)) == truth, config
    # The published window under-reports by design; both searchers run the
    # same two probes over the same partitions, so they agree.
    paper = PartSJConfig.paper()
    batch = TreeCollection.from_trees(forest).searcher(tau, paper)
    join = StreamingJoin(tau, config=paper)
    join.add_many(forest)
    for query in queries:
        hits = hit_list(batch.search(query))
        assert hit_list(join.searcher().search(query)) == hits
        assert set(hits) <= set(brute_force_hits(query, forest, tau))


class TestQueryLabels:
    NOVEL = ("{q{r}{s}{t}{u}}", "{a{b}{zz{b}}}", "{new{a}{b}{c}{d}{e}}")

    def test_searches_leave_interners_unchanged(self, rng):
        # Every tree is partitionable at tau=1, so preparing the session
        # and ingesting the stream build every record up front.
        tau = 1
        forest = make_cluster_forest(
            rng, clusters=3, cluster_size=3, base_size=8, max_edits=2
        )
        col = TreeCollection.from_trees(forest)
        col.prepare(tau)
        join = StreamingJoin(tau)
        join.add_many(forest)
        session_labels = len(col.interner)
        stream_labels = len(join._driver.interner)
        queries = [Tree.from_bracket(bracket) for bracket in self.NOVEL]
        queries += [random_script(tree, 1, rng, ["a", "novel"])[0]
                    for tree in forest]
        for query in queries:
            truth = brute_force_hits(query, forest, tau)
            assert hit_list(col.search(query, tau).run()) == truth
            assert hit_list(join.searcher().search(query)) == truth
        assert len(col.interner) == session_labels
        assert len(join._driver.interner) == stream_labels

    def test_query_labels_never_alias_unindexed_trees(self):
        # At tau 3 no tree here is partitioned, so none has a record before
        # the first search; the records a search builds must not reuse the
        # ids the query's own labels were given.
        forest = [
            Tree.from_bracket(bracket)
            for bracket in ("{b{a}}", "{c{d}}", "{d{c}{b}{c}{a}}", "{a{c{d{a}}}}")
        ]
        query = Tree.from_bracket("{d{b}}")
        truth = brute_force_hits(query, forest, 3)
        batch = TreeCollection.from_trees(forest).searcher(3)
        assert hit_list(batch.search(query)) == truth
        join = StreamingJoin(3)
        join.add(forest[2])
        join.add(forest[0])
        searcher = join.searcher()
        assert hit_list(searcher.search(query)) == brute_force_hits(
            query, [forest[2], forest[0]], 3
        )
