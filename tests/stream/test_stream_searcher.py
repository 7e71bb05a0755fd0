"""The warm-index searcher: live view, no rebuild, batch-search answers."""

import random

import pytest

from repro.core.join import PartSJConfig
from repro.session import TreeCollection
from repro.stream import StreamingJoin
from repro.tree.edits import random_script
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest, make_random_tree


def hit_list(hits):
    return [(h.index, h.distance) for h in hits]


@pytest.fixture
def workload():
    rng = random.Random(21)
    trees = make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=10, max_edits=3
    )
    trees += [make_random_tree(rng, rng.randint(1, 4)) for _ in range(4)]
    rng.shuffle(trees)
    return trees


class TestStreamSearcher:
    @pytest.mark.parametrize("tau", (1, 2))
    def test_mid_ingest_answers_equal_batch_search(self, workload, tau):
        rng = random.Random(31)
        join = StreamingJoin(tau)
        searcher = join.searcher()
        for k, tree in enumerate(workload):
            join.add(tree)
            if k % 3 != 0:
                continue
            base = workload[rng.randrange(len(workload))]
            query, _ = random_script(base, rng.randint(0, tau), rng, "abcd")
            batch = TreeCollection.from_trees(workload[: k + 1])
            assert hit_list(searcher.search(query)) == hit_list(
                batch.search(query, tau).run()
            )

    def test_small_and_oversized_queries(self, workload):
        join = StreamingJoin(2)
        join.add_many(workload)
        searcher = join.searcher()
        batch = TreeCollection.from_trees(workload).searcher(2)
        for bracket in ("{a}", "{a{b}}", "{a{b}{c}}"):
            query = Tree.from_bracket(bracket)
            assert hit_list(searcher.search(query)) == hit_list(
                batch.search(query)
            )
        big = make_random_tree(random.Random(41), 60)
        assert searcher.search(big) == batch.search(big)

    def test_no_rebuild_between_queries(self, workload):
        join = StreamingJoin(2)
        join.add_many(workload)
        searcher = join.searcher()
        # The searcher *is* a view: same index object, same interner, and
        # querying does not grow the index.
        assert searcher._index is join._driver.index
        assert searcher._interner is join._driver.interner
        entries_before = join._driver.index.total_entries
        searcher.search(workload[0])
        searcher.search(Tree.from_bracket("{a{b}}"))
        assert join._driver.index.total_entries == entries_before

    def test_searcher_sees_later_ingests(self, workload):
        join = StreamingJoin(1)
        searcher = join.searcher()
        query = workload[0]
        assert searcher.search(query) == []
        join.add(Tree.from_bracket(query.to_bracket()))  # exact duplicate
        hits = searcher.search(query)
        assert hit_list(hits) == [(0, 0)]

    def test_reverse_filter_prunes_larger_side(self, workload):
        # With the safe config, the streaming searcher must *filter* the
        # larger-than-query band, not verify it wholesale: a query with no
        # labels in common with the collection yields no candidates at all.
        join = StreamingJoin(2)
        join.add_many([t for t in workload if t.size > 8])
        searcher = join.searcher()
        alien = Tree.from_bracket("{q{q{q{q{q{q{q}}}}}}}")
        assert searcher.search(alien) == []

    def test_respects_paper_config(self, workload):
        config = PartSJConfig.paper()
        join = StreamingJoin(2, config=config)
        join.add_many(workload)
        stream_hits = join.searcher().search(workload[0])
        batch_hits = TreeCollection.from_trees(workload).searcher(
            2, config
        ).search(workload[0])
        assert hit_list(stream_hits) == hit_list(batch_hits)
