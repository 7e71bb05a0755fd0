"""Tests for the prepared-once, query-many session API (repro.session).

The load-bearing property: a :class:`TreeCollection` session — cold or
warm, partsj or baseline, serial or sharded, any filter config — returns
**bit-identical** pairs and distances to the raw engines the legacy
shims wrap.  The session fixture is module-scoped on purpose: queries
accumulate prepared state, so later parametrizations run against a warm
session and the equivalence is exercised in exactly the reuse scenarios
the API exists for.
"""

import random

import pytest

from repro.baselines.histogram_join import histogram_join
from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.set_join import set_join
from repro.baselines.str_join import str_join
from repro.core.join import PartSJConfig, partsj_join
from repro.core.treecache import TreeCache
from repro.errors import InvalidParameterError
from repro.session import JOIN_METHOD_NAMES, TreeCollection
from repro.stream.engine import StreamingJoin
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest

TAUS = (1, 2, 3)

# Filter configurations covering both provable and paper-faithful
# variants (the paper config can prune differently — the session must
# reproduce even its misses bit for bit).
CONFIGS = {
    "default": None,
    "paper": PartSJConfig.paper(),
    "window_off": PartSJConfig(postorder_filter="off"),
    "random_partition": PartSJConfig(partition_strategy="random", seed=7),
}

BASELINES = {
    "str": str_join,
    "set": set_join,
    "histogram": histogram_join,
    "nested_loop": nested_loop_join,
}


def triples(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


@pytest.fixture(scope="module")
def forest():
    rng = random.Random(0x5E55)
    return make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=10, max_edits=3
    )


@pytest.fixture(scope="module")
def session(forest):
    """One warm session shared by the whole module (reuse is the point)."""
    return TreeCollection.from_trees(forest)


class TestJoinEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("tau", TAUS)
    def test_partsj_session_equals_engine(self, session, forest, config_name, tau):
        config = CONFIGS[config_name]
        reference = partsj_join(forest, tau, config)
        result = session.join(tau, config=config).run()
        assert triples(result.pairs) == triples(reference.pairs)

    @pytest.mark.parametrize("config_name", ["default", "paper"])
    @pytest.mark.parametrize("tau", (1, 2))
    def test_partsj_sharded_session_equals_engine(
        self, session, forest, config_name, tau
    ):
        config = CONFIGS[config_name]
        reference = partsj_join(forest, tau, config)
        result = session.join(tau, workers=2, config=config).run()
        assert triples(result.pairs) == triples(reference.pairs)
        assert result.stats.extra.get("workers", 1) in (1, 2)

    @pytest.mark.parametrize("method", sorted(BASELINES))
    @pytest.mark.parametrize("tau", TAUS)
    def test_baseline_session_equals_engine(self, session, forest, method, tau):
        reference = BASELINES[method](forest, tau)
        result = session.join(tau, method=method).run()
        assert triples(result.pairs) == triples(reference.pairs)
        assert result.stats.method == reference.stats.method

    @pytest.mark.parametrize("method", ["str", "nested_loop"])
    def test_baseline_session_with_workers(self, session, forest, method):
        reference = BASELINES[method](forest, 2)
        result = session.join(2, method=method, workers=2).run()
        assert triples(result.pairs) == triples(reference.pairs)

    def test_warm_counters_match_cold_engine(self, session, forest):
        """A warm session's probe/partition counters equal the raw engine's
        (the prepared partitions change where work happens, not what)."""
        reference = partsj_join(forest, 2)
        result = session.join(2).run()
        for key in (
            "probe_hits", "match_tests", "match_hits", "dedup_skips",
            "screened", "partitioned_trees", "small_trees", "subgraphs_built",
            "gamma_total",
        ):
            assert result.stats.extra[key] == reference.stats.extra[key], key
        assert result.stats.candidates == reference.stats.candidates
        assert result.stats.ted_calls <= reference.stats.ted_calls

    def test_every_registered_method_agrees_on_session(self, session):
        results = {
            name: session.join(2, method=name).run().pair_set()
            for name in JOIN_METHOD_NAMES
        }
        reference = results["nested_loop"]
        assert all(r == reference for r in results.values())


class TestSearchEquivalence:
    @pytest.mark.parametrize("tau", (1, 2))
    def test_session_search_equals_fresh_searcher(self, session, forest, tau):
        from repro.search import SimilaritySearcher

        fresh = SimilaritySearcher(list(forest), tau)
        for query in forest[:6]:
            expected = [(h.index, h.distance) for h in fresh.search(query)]
            got = [
                (h.index, h.distance)
                for h in session.search(query, tau).run()
            ]
            assert got == expected

    def test_search_after_join_reuses_preparation(self, forest):
        col = TreeCollection.from_trees(forest)
        col.join(2).run()
        assert col.is_prepared(2)
        prep = col.prepare(2)
        searcher = col.searcher(2)
        # Same prepared object, same index instance on repeated access.
        assert col.prepare(2) is prep
        assert col.searcher(2) is searcher
        hits = col.search(forest[0], 2).run()
        assert any(h.distance == 0 for h in hits)

    def test_searcher_accepts_collection_and_raw_trees(self, forest):
        from repro.search import SimilaritySearcher

        col = TreeCollection.from_trees(forest)
        a = SimilaritySearcher(col, 1)
        b = SimilaritySearcher(list(forest), 1)
        for query in forest[:4]:
            assert [(h.index, h.distance) for h in a.search(query)] == [
                (h.index, h.distance) for h in b.search(query)
            ]


class TestRSJoinEquivalence:
    @pytest.mark.parametrize("tau", (0, 1, 2))
    def test_join_with_matches_merged_engine(self, forest, tau):
        left, right = forest[:6], forest[6:]
        merged = list(left) + list(right)
        inner = partsj_join(merged, tau)
        offset = len(left)
        expected = sorted(
            (p.i, p.j - offset, p.distance)
            for p in inner.pairs
            if p.i < offset <= p.j
        )
        col = TreeCollection.from_trees(left)
        result = col.join_with(right, tau).run()
        assert triples(result.pairs) == expected
        assert result.stats.method == "PRT-RS"

    def test_repeated_rs_queries_share_merged_session(self, forest):
        left_col = TreeCollection.from_trees(forest[:6])
        right_col = TreeCollection.from_trees(forest[6:])
        first = left_col.join_with(right_col, 1).run()
        merged = left_col._merged_with(right_col)
        assert merged.is_prepared(1)
        # A second query (same and different tau) reuses the same merged
        # session object — nothing re-prepared on either side.
        again = left_col.join_with(right_col, 1).run()
        assert triples(again.pairs) == triples(first.pairs)
        other_tau = left_col.join_with(right_col, 2).run()
        assert left_col._merged_with(right_col) is merged
        assert merged.prepared_taus() == [1, 2]
        assert set(p.key() for p in first.pairs) <= set(
            p.key() for p in other_tau.pairs
        )

    def test_rs_result_does_not_corrupt_cached_inner(self, forest):
        """Deriving RS stats must not mutate the merged session's cached
        self-join result (method tag, counters)."""
        left_col = TreeCollection.from_trees(forest[:6])
        left_col.join_with(forest[6:], 1).run()
        merged = left_col._merged_with(
            left_col._merged[next(iter(left_col._merged))][0]
        )
        inner = merged.join(1).run()
        assert inner.stats.method == "PRT"
        assert "cross_pairs" not in inner.stats.extra
        second = left_col.join_with(
            left_col._merged[next(iter(left_col._merged))][0], 1
        ).run()
        assert second.stats.method == "PRT-RS"


class TestStreamEquivalence:
    @pytest.mark.parametrize("tau", (1, 2))
    def test_stream_plan_equals_batch_join(self, session, forest, tau):
        batch = partsj_join(forest, tau)
        streamed = sorted(session.stream(tau).run(), key=lambda p: p.key())
        assert triples(streamed) == triples(batch.pairs)

    def test_stream_engine_handoff(self, session, forest):
        engine = session.stream(1).engine()
        try:
            assert isinstance(engine, StreamingJoin)
            assert len(engine) == len(forest)
            # The engine stays live: keep ingesting past the collection.
            engine.add(forest[0].copy())
            engine.flush()
            assert any(p.distance == 0 for p in engine.results())
        finally:
            engine.close()


class TestSessionReuse:
    def test_identical_join_served_from_result_cache(self, forest):
        col = TreeCollection.from_trees(forest)
        first = col.join(1).run()
        assert col.join(1).run() is first  # cache hit, no recompute

    def test_prep_reused_reports_a_warm_preparation(self, forest):
        col = TreeCollection.from_trees(forest)
        # The session's first join builds its preparation.
        assert col.join(1).run().stats.extra["prep_reused"] is False
        col.prepare(2)
        assert col.join(2).run().stats.extra["prep_reused"] is True

    def test_multi_tau_shares_tau_independent_state(self, forest):
        col = TreeCollection.from_trees(forest)
        col.join(1).run()
        records_after_first = dict(col.verifier_caches)
        views_after_first = col.verifier_caches.built("label_bag")
        assert records_after_first and views_after_first
        col.join(2).run()
        # tau=2 re-partitions but reuses every record (and view) built for
        # tau=1: the store only grows, never replaces.
        for i, record in records_after_first.items():
            assert col.verifier_caches[i] is record
            assert col.cache(i) is record
        assert col.verifier_caches.built("label_bag") >= views_after_first
        assert col.prepared_taus() == [1, 2]

    def test_prepare_is_idempotent_and_keyed_by_config(self, forest):
        col = TreeCollection.from_trees(forest)
        a = col.prepare(1)
        assert col.prepare(1) is a
        b = col.prepare(1, PartSJConfig(partition_strategy="random"))
        assert b is not a
        assert col.is_prepared(1)
        assert not col.is_prepared(3)

    def test_stats_snapshot(self, forest):
        col = TreeCollection.from_trees(forest)
        empty = col.stats()
        assert empty["trees"] == len(forest)
        assert empty["prepared"] == []
        col.join(1).run()
        warm = col.stats()
        assert warm["cached_results"] == 1
        assert warm["prepared"][0]["tau"] == 1
        assert "TreeCollection" in repr(col)


class TestQueryPlans:
    def test_join_explain_structure(self, forest):
        col = TreeCollection.from_trees(forest)
        plan = col.join(2)
        explain = plan.explain()
        assert explain["kind"] == "join"
        assert explain["method"] == "partsj"
        assert explain["tau"] == 2
        assert explain["workers"] == 1
        assert explain["collection"]["trees"] == len(forest)
        assert explain["filter"]["semantics"] == "safe"
        assert explain["prepared"] is False
        assert explain["cached_result"] is False
        plan.run()
        explain = plan.explain()
        assert explain["prepared"] is True
        assert explain["cached_result"] is True
        assert explain["index"]["partitioned_trees"] >= 1

    def test_join_explain_includes_shards_for_workers(self, forest):
        col = TreeCollection.from_trees(forest)
        explain = col.join(1, workers=2).explain()
        shards = explain["shards"]
        assert len(shards) >= 1
        assert {"shard", "owned_trees", "band_trees", "size_range",
                "est_cost"} <= set(shards[0])

    def test_baseline_explain_carries_options(self, forest):
        col = TreeCollection.from_trees(forest)
        explain = col.join(1, method="str", banded=True).explain()
        assert explain["method"] == "str"
        assert explain["options"] == {"banded": True}
        assert "filter" not in explain

    def test_search_and_stream_explain(self, forest):
        col = TreeCollection.from_trees(forest)
        search_plan = col.search(forest[0], 1)
        assert search_plan.explain()["kind"] == "search"
        assert search_plan.explain()["query_size"] == forest[0].size
        stream_plan = col.stream(1)
        explain = stream_plan.explain()
        assert explain["kind"] == "stream"
        assert explain["source"]["trees"] == len(forest)
        assert explain["prepared"] is False

    def test_iter_matches_run(self, forest):
        col = TreeCollection.from_trees(forest)
        assert triples(col.join(1).iter()) == triples(col.join(1).run().pairs)

    def test_plan_repr_mentions_method_and_tau(self, forest):
        col = TreeCollection.from_trees(forest)
        text = repr(col.join(2))
        assert "JoinPlan" in text and "2" in text


class TestValidation:
    def test_tau_validated_at_plan_build(self, forest):
        col = TreeCollection.from_trees(forest)
        with pytest.raises(InvalidParameterError, match="tau"):
            col.join(-1)
        with pytest.raises(InvalidParameterError, match="tau"):
            col.join(1.5)
        with pytest.raises(InvalidParameterError, match="tau"):
            col.search(forest[0], -2)
        with pytest.raises(InvalidParameterError, match="tau"):
            col.stream(-1)

    def test_workers_validated_at_plan_build(self, forest):
        col = TreeCollection.from_trees(forest)
        with pytest.raises(InvalidParameterError, match="workers"):
            col.join(1, workers=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            col.join(1, workers="two")

    def test_unknown_method_and_config_conflicts(self, forest):
        col = TreeCollection.from_trees(forest)
        with pytest.raises(InvalidParameterError, match="unknown join method"):
            col.join(1, method="magic")
        with pytest.raises(InvalidParameterError, match="not both"):
            col.join(1, config=PartSJConfig(), semantics="paper")
        with pytest.raises(InvalidParameterError, match="PartSJ option"):
            col.join(1, method="str", config=PartSJConfig())

    def test_non_tree_rejected_at_construction(self):
        with pytest.raises(InvalidParameterError, match="expected Tree"):
            TreeCollection.from_trees([Tree.from_bracket("{a}"), "nope"])
        col = TreeCollection.from_trees([Tree.from_bracket("{a}")])
        with pytest.raises(InvalidParameterError, match="query must be a Tree"):
            col.search("nope", 1)

    def test_empty_and_single_tree_collections(self):
        empty = TreeCollection.from_trees([])
        assert empty.join(1).run().pairs == []
        assert empty.stats()["size_min"] is None
        single = TreeCollection.from_trees([Tree.from_bracket("{a}")])
        assert single.join(1).run().pairs == []
        assert single.search(Tree.from_bracket("{a}"), 0).run()[0].distance == 0


class TestReviewRegressions:
    """Pinned behaviors from the PR-5 review pass."""

    def test_prep_key_separates_semantics(self, forest):
        """A paper-semantics preparation must never answer a safe-config
        search (prep.config leaks into query-time matching)."""
        from repro.core.subgraph import MatchSemantics

        col = TreeCollection.from_trees(forest)
        col.prepare(2, PartSJConfig(semantics="paper"))
        safe_searcher = col.searcher(2)
        assert safe_searcher.config.semantics is MatchSemantics.SAFE
        paper_searcher = col.searcher(2, PartSJConfig(semantics="paper"))
        assert paper_searcher.config.semantics is MatchSemantics.PAPER
        assert safe_searcher is not paper_searcher
        # And the safe searcher answers exactly like a fresh safe one.
        from repro.search import SimilaritySearcher

        fresh = SimilaritySearcher(list(forest), 2)
        for query in forest[:4]:
            assert [
                (h.index, h.distance) for h in safe_searcher.search(query)
            ] == [(h.index, h.distance) for h in fresh.search(query)]

    def test_custom_join_method_registry_still_dispatches(self, forest):
        import warnings

        from repro.api import JOIN_METHODS, similarity_join
        from repro.baselines.nested_loop import nested_loop_join

        calls = []

        def custom(trees, tau, **options):
            calls.append((len(trees), tau, options))
            return nested_loop_join(trees, tau)

        JOIN_METHODS["custom_test_method"] = custom
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                result = similarity_join(forest, 1, method="custom_test_method")
            assert calls == [(len(forest), 1, {})]
            assert result.pair_set() == nested_loop_join(forest, 1).pair_set()
        finally:
            del JOIN_METHODS["custom_test_method"]

    def test_join_with_plain_sequence_reuses_merged_session(self, forest):
        left_col = TreeCollection.from_trees(forest[:6])
        right_list = list(forest[6:])
        left_col.join_with(right_list, 1).run()
        merged = left_col._merged_with(right_list)
        left_col.join_with(right_list, 2).run()
        assert left_col._merged_with(right_list) is merged
        assert merged.prepared_taus() == [1, 2]

    def test_join_with_sees_mutations_of_plain_sequence(self, forest):
        """A mutated right-side list must invalidate the cached merged
        session — never silently answer for trees it has not seen."""
        base = forest[0]
        right = [base.copy()]
        col = TreeCollection.from_trees([base])
        first = col.join_with(right, 0).run()
        assert [(p.i, p.j) for p in first.pairs] == [(0, 0)]
        right.append(base.copy())
        second = col.join_with(right, 0).run()
        assert [(p.i, p.j) for p in second.pairs] == [(0, 0), (0, 1)]

    def test_rs_explain_does_not_build_merged_session(self, forest):
        col = TreeCollection.from_trees(forest[:6])
        plan = col.join_with(forest[6:], 2)
        explain = plan.explain()
        assert col._merged == {}  # nothing materialized by explain()
        assert explain["kind"] == "rs_join"
        assert explain["left_trees"] == 6
        assert explain["right_trees"] == len(forest) - 6
        assert explain["prepared"] is False
        plan.run()
        warm = plan.explain()  # now described through the merged session
        assert warm["prepared"] is True
        assert warm["collection"]["size_min"] is not None

    def test_merged_cache_is_bounded(self, forest):
        left_col = TreeCollection.from_trees(forest[:4])
        limit = TreeCollection._MERGED_CACHE_LIMIT
        for _ in range(limit + 3):
            left_col.join_with([forest[-1].copy()], 0).run()
        assert len(left_col._merged) <= limit

    def test_search_leaves_shared_caches_query_free(self, forest):
        col = TreeCollection.from_trees(forest)
        col.search(forest[0], 1).run()
        shared = col.verifier_caches
        # Only collection trees have records; the query never enters.
        assert shared and set(shared) <= set(range(len(forest)))
        assert all(
            shared[i].labels == TreeCache(forest[i], shared.interner).labels
            for i in shared
        )
        # Collection-tree work done during the search was written back.
        assert shared.built("label_bag") > 0

    def test_workers_config_composition_reports_itself(self, forest):
        col = TreeCollection.from_trees(forest)
        plan = col.join(1, config=PartSJConfig(workers=2))
        explain = plan.explain()
        assert explain["workers"] == 2
        assert "shards" in explain
        reference = partsj_join(forest, 1)
        assert triples(plan.run().pairs) == triples(reference.pairs)

    def test_parallel_fallback_on_degenerate_collection(self):
        tiny = TreeCollection.from_trees([Tree.from_bracket("{a{b}{c}}")])
        assert tiny.join(1, workers=4).run().pairs == []

    def test_prepared_session_feeds_parallel_run(self, forest):
        col = TreeCollection.from_trees(forest)
        col.join(2).run()  # serial first: tau=2 fully prepared
        reference = partsj_join(forest, 2)
        parallel = col.join(2, workers=2).run()
        assert triples(parallel.pairs) == triples(reference.pairs)


class TestFromFile:
    def test_from_file_round_trip(self, tmp_path, forest):
        from repro.datasets.io import save_trees

        path = tmp_path / "forest.trees"
        save_trees(forest, path)
        col = TreeCollection.from_file(path)
        assert len(col) == len(forest)
        assert triples(col.join(1).run().pairs) == triples(
            partsj_join(forest, 1).pairs
        )


class TestCacheManagement:
    def test_merged_cache_evicts_least_recently_used(self, forest):
        col = TreeCollection.from_trees(forest[:4])
        limit = TreeCollection._MERGED_CACHE_LIMIT
        rights = [[tree.copy()] for tree in forest[:limit]]
        for right in rights:
            col.join_with(right, 0).run()
        # Touch the oldest entry: a hit must refresh its recency...
        col.join_with(rights[0], 0).run()
        assert len(col._merged) == limit
        # ...so the next insertion evicts rights[1], not rights[0].
        col.join_with([forest[-1].copy()], 0).run()
        assert id(rights[0]) in col._merged
        assert id(rights[1]) not in col._merged

    def test_drop_caches_releases_query_state(self, forest):
        col = TreeCollection.from_trees(forest)
        col.join(1).run()
        col.join_with([forest[0].copy()], 0).run()
        assert col.stats()["cached_results"] > 0
        assert col.stats()["merged_sessions"] == 1
        col.drop_caches()
        stats = col.stats()
        assert stats["cached_results"] == 0
        assert stats["merged_sessions"] == 0
        assert col.prepared_taus() == [1]  # prepared state survives
        assert triples(col.join(1).run().pairs) == triples(
            partsj_join(forest, 1).pairs
        )

    def test_drop_caches_deep_resets_to_cold(self, forest):
        col = TreeCollection.from_trees(forest)
        col.join(1).run()
        col.search(forest[0], 1).run()
        col.drop_caches(deep=True)
        stats = col.stats()
        assert col.prepared_taus() == []
        assert stats["tree_caches"] == 0
        assert stats["verifier_annotations"] == 0
        # The session is still fully usable and still bit-identical.
        assert triples(col.join(1).run().pairs) == triples(
            partsj_join(forest, 1).pairs
        )
