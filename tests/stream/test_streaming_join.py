"""Prefix equivalence: the streaming engine vs the batch pipeline.

The acceptance bar of the subsystem: over **any arrival order**, the
streamed results after every arrival are bit-identical — same pairs,
same exact distances, same canonical ordering — to a batch join
(``TreeCollection.join``) over exactly the ingested prefix.  All five
join methods agree on the batch side, so streaming is checked against
each of them.  Each arrival's candidates are those a searcher over the prefix
before it finds, so under the opt-in published window and binary
numbering a stream returns every batch pair and may add true ones.  A
stream verifies inline: a config asking for ``workers=2`` starts no
process, and each ``add()`` returns exactly its arrival's pairs.
"""

import multiprocessing
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.nested_loop import nested_loop_join
from repro.core.join import PartSJConfig, partsj_join
from repro.errors import InvalidParameterError
from repro.persist.wal import scan_wal
from repro.session import StreamPlan, TreeCollection
from repro.stream import StreamingJoin
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest, make_random_tree
from tests.core.test_join_properties import (
    PUBLISHED_WINDOW,
    SOUND_CONFIGS,
    clustered_forests,
)

TAUS = (1, 2, 3)
METHODS = ("partsj", "str", "set", "histogram", "nested_loop")
FILTER_VARIANTS = [
    PartSJConfig(),
    PartSJConfig.paper(),
    PartSJConfig(postorder_filter="off"),
    PartSJConfig(postorder_numbering="binary"),
    PartSJConfig(partition_strategy="random", postorder_filter="off"),
]
FILTER_IDS = ["safe", "paper", "no-postorder", "binary-numbering", "random-cuts"]


def triples(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


def batch_join(trees, tau, **options):
    """A one-shot session's self-join of ``trees``."""
    return TreeCollection.from_trees(trees).join(tau, **options).run()


def make_stream_workload(seed, with_tiny=True):
    """Clustered forest plus (optionally) small-pool trees, shuffled."""
    rng = random.Random(seed)
    trees = make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=10, max_edits=3
    )
    if with_tiny:
        trees += [make_random_tree(rng, rng.randint(1, 4)) for _ in range(5)]
    rng.shuffle(trees)
    return trees


class TestPrefixEquivalence:
    @pytest.mark.parametrize("seed", (11, 22, 33))
    @pytest.mark.parametrize("tau", TAUS)
    def test_every_prefix_matches_batch(self, seed, tau):
        trees = make_stream_workload(seed)
        join = StreamingJoin(tau)
        for k, tree in enumerate(trees):
            join.add(tree)
            batch = batch_join(trees[: k + 1], tau)
            assert triples(join.results()) == triples(batch.pairs), (
                f"prefix {k + 1} diverged (tau={tau}, seed={seed})"
            )

    @pytest.mark.parametrize("tau", TAUS)
    def test_candidate_counts_match_batch(self, tau):
        # Fed in the batch join's (ascending size) order, no arrival has an
        # earlier, larger partner, so the stream runs the batch filter and
        # nothing else: even the *candidate* counts agree.  In any other
        # order the larger side partitions the larger tree, a different
        # sound filter (TestArrivalSearchesThePrefix pins that side).
        trees = sorted(make_stream_workload(44), key=lambda t: t.size)
        join = StreamingJoin(tau)
        join.add_many(trees)
        stats = join.stats()
        assert stats.reverse_candidates == 0
        assert stats.candidates == batch_join(trees, tau).stats.candidates

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_every_batch_method(self, method):
        trees = make_stream_workload(55)
        join = StreamingJoin(2)
        join.add_many(trees)
        batch = batch_join(trees, 2, method=method)
        assert triples(join.results()) == triples(batch.pairs)

    @pytest.mark.parametrize("config", FILTER_VARIANTS, ids=FILTER_IDS)
    def test_filter_variants_stream_like_batch(self, config):
        trees = make_stream_workload(66)
        join = StreamingJoin(2, config=config)
        join.add_many(trees)
        batch = batch_join(trees, 2, config=config)
        assert triples(join.results()) == triples(batch.pairs)

    def test_ascending_and_descending_arrival(self):
        trees = sorted(make_stream_workload(77), key=lambda t: t.size)
        for ordering in (trees, trees[::-1]):
            join = StreamingJoin(2)
            join.add_many(ordering)
            batch = batch_join(ordering, 2)
            assert triples(join.results()) == triples(batch.pairs)

    def test_tau_zero_exact_duplicates(self):
        rng = random.Random(9)
        base = make_random_tree(rng, 8)
        dup = Tree.from_bracket(base.to_bracket())
        trees = [make_random_tree(rng, 8), base, make_random_tree(rng, 6), dup]
        join = StreamingJoin(0)
        join.add_many(trees)
        assert triples(join.results()) == triples(batch_join(trees, 0).pairs)
        assert join.results()[0].key() == (1, 3)


def record_partners(verifier, method, position):
    """Wrap ``verifier.<method>`` to log the partner index of each call."""
    seen = []
    verify = getattr(verifier, method)

    def logged(*args):
        seen.append(args[position])
        return verify(*args)

    setattr(verifier, method, logged)
    return seen


class TestArrivalSearchesThePrefix:
    @pytest.mark.parametrize("tau", (0, 1, 2, 3))
    @pytest.mark.parametrize("config", FILTER_VARIANTS, ids=FILTER_IDS)
    def test_candidates_equal_a_search_of_the_prefix(self, config, tau):
        for seed in (11, 22, 33, 44, 55, 66):
            join = StreamingJoin(tau, config=config)
            searcher = join.searcher()
            streamed = record_partners(join._verifier, "verify", 1)
            searched = record_partners(searcher._verifier, "verify_record", 0)
            for k, tree in enumerate(make_stream_workload(seed)):
                streamed.clear()
                searched.clear()
                searcher.search(tree)
                join.add(tree)
                assert sorted(streamed) == sorted(searched), (
                    f"arrival {k} (seed {seed})"
                )


    @pytest.mark.parametrize("config", FILTER_VARIANTS, ids=FILTER_IDS)
    def test_small_arrival_finds_its_larger_indexed_partners(self, config):
        # At tau 2 an arrival of 4 nodes is too small to partition, but the
        # earlier arrivals of 5 and 6 nodes are indexed: only its walk over
        # the sizes above its own finds them.
        join = StreamingJoin(2, config=config)
        join.add(Tree.from_bracket("{a{b}{c}{d}{e}}"))
        join.add(Tree.from_bracket("{a{b}{c}{d}{e}{f}}"))
        found = join.add(Tree.from_bracket("{a{b}{c}{d}}"))
        assert sorted(triples(found)) == [(0, 2, 1), (1, 2, 2)]
        stats = join.stats()
        assert (stats.small_pool, stats.reverse_candidates) == (1, 2)
        assert triples(join.results()) == triples(
            batch_join(join.trees, 2).pairs
        )


def stream_triples(trees, tau, config):
    join = StreamingJoin(tau, config=config)
    join.add_many(trees)
    return set(triples(join.results()))


@given(
    forest=clustered_forests(),
    tau=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_shuffled_streams_against_nested_loop(forest, tau, seed):
    random.Random(seed).shuffle(forest)
    truth = set(triples(nested_loop_join(forest, tau).pairs))
    for config in SOUND_CONFIGS:
        assert stream_triples(forest, tau, config) == truth, config
    # The batch join may miss true pairs under these; an arrival finds its
    # earlier, larger partners under a rule that holds, so it misses fewer.
    for config in PUBLISHED_WINDOW + [PartSJConfig(postorder_numbering="binary")]:
        batch = set(triples(partsj_join(forest, tau, config).pairs))
        assert batch <= stream_triples(forest, tau, config) <= truth, config


class TestInlineVerification:
    def test_one_path_starts_no_process(self):
        trees = make_stream_workload(88)
        by_arrival = {}
        for p in batch_join(trees, 2).pairs:
            by_arrival.setdefault(p.j, []).append((p.i, p.j, p.distance))
        # The config's execution fields configure the batch executor; the
        # stream ignores them and verifies every candidate in add().
        config = PartSJConfig(workers=2)
        with StreamingJoin(2, config=config) as join:
            for k, tree in enumerate(trees):
                assert sorted(triples(join.add(tree))) == by_arrival.get(k, [])
            assert multiprocessing.active_children() == []
            assert join.flush() == []
        col = TreeCollection.from_trees(trees)
        with col.stream(2, config=config).engine() as engine:
            assert multiprocessing.active_children() == []
            assert triples(engine.results()) == triples(
                batch_join(trees, 2).pairs
            )


class TestStreamJoinApi:
    def test_generator_yields_batch_results(self):
        trees = make_stream_workload(12)
        streamed = sorted(triples(StreamPlan(iter(trees), 2).iter()))
        assert streamed == sorted(triples(batch_join(trees, 2).pairs))

    def test_arrival_pairs_yield_before_the_next_pull(self):
        trees = make_stream_workload(12)
        pulled = []

        def source():
            for tree in trees:
                pulled.append(tree)
                yield tree

        streamed = []
        for pair in StreamPlan(source(), 2).iter():
            # Found by arrival pair.j; no later tree has been pulled yet.
            assert len(pulled) == pair.j + 1
            streamed.append(pair)
        assert sorted(triples(streamed)) == triples(batch_join(trees, 2).pairs)
        assert streamed

    def test_pairs_reference_arrival_positions(self):
        a = Tree.from_bracket("{a{b}{c{d}}}")
        b = Tree.from_bracket("{a{b}{c{e}}}")
        filler = Tree.from_bracket("{x{y{z{w{v}}}}{u}}")
        pairs = list(StreamPlan(iter([filler, a, b]), 1).iter())
        assert [(p.i, p.j, p.distance) for p in pairs] == [(1, 2, 1)]

    def test_empty_and_singleton_streams(self):
        assert list(StreamPlan(iter([]), 2).iter()) == []
        assert StreamPlan(iter([Tree.from_bracket("{a}")]), 2).run() == []

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            StreamingJoin(-1)
        with pytest.raises(InvalidParameterError):
            StreamingJoin(1).add("not a tree")
        # The plan validates eagerly: the error raises at construction,
        # not at the first next() of the generator iter() returns.
        with pytest.raises(InvalidParameterError):
            StreamPlan(iter([]), -1)

    def test_closed_engine_rejects_adds(self):
        join = StreamingJoin(1)
        join.close()
        with pytest.raises(InvalidParameterError):
            join.add(Tree.from_bracket("{a}"))


class TestStreamStats:
    def test_counters_and_rate(self):
        trees = make_stream_workload(14)
        join = StreamingJoin(2)
        join.add_many(trees)
        stats = join.stats()
        assert stats.trees == len(trees)
        assert stats.results == len(join.results())
        assert stats.ingest_time > 0
        assert stats.ingest_rate > 0
        assert stats.index_entries == stats.index_subgraphs > 0
        assert 0 < stats.reverse_candidates < stats.candidates
        extra = stats.extra
        assert extra["screened"] <= extra["match_tests"] <= extra["probe_hits"]
        payload = stats.as_dict()
        assert payload["trees"] == len(trees)
        assert "ingest_rate" in payload and "extra" in payload

    def test_empty_engine_snapshot(self):
        stats = StreamingJoin(1).stats()
        assert (stats.trees, stats.results, stats.candidates) == (0, 0, 0)
        assert (stats.index_subgraphs, stats.small_pool) == (0, 0)
        assert stats.ingest_rate == 0.0
        assert stats.as_dict()["ingest_rate"] == 0.0


class TestArrivalPairs:
    @pytest.mark.parametrize("tau", (0, 1, 2, 3))
    def test_add_returns_make_up_the_discovery_order(self, tau):
        # Each add() returns only pairs whose larger index is the arrival;
        # in arrival order they are exactly ``pairs``, and sorted they are
        # ``results()``.
        trees = make_stream_workload(18)
        join = StreamingJoin(tau)
        returned = []
        for k, tree in enumerate(trees):
            found = join.add(tree)
            assert all(p.i < p.j == k for p in found), k
            returned.extend(found)
        assert triples(join.pairs) == triples(returned)
        assert triples(join.results()) == sorted(triples(returned))
        assert join.stats().results == len(returned)


class TestLifecycle:
    @pytest.mark.parametrize("fsync", (None, "always", "batch", "never"))
    def test_close_is_idempotent(self, tmp_path, fsync):
        trees = make_stream_workload(15)
        wal = tmp_path / "stream.wal"
        options = {} if fsync is None else {
            "wal": str(wal), "wal_fsync": fsync,
        }
        join = StreamingJoin(2, **options)
        join.add_many(trees)
        join.close()
        join.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            join.add(trees[0])
        if fsync is not None:
            logged = scan_wal(wal)["brackets"]
            assert logged == [tree.to_bracket() for tree in trees]

    def test_read_accessors_survive_close(self):
        trees = make_stream_workload(16)
        join = StreamingJoin(2)
        join.add_many(trees)
        join.close()
        batch = batch_join(trees, 2)
        assert triples(join.results()) == triples(batch.pairs)
        assert sorted(triples(join.pairs)) == triples(batch.pairs)
        assert join.stats().trees == len(join) == len(trees)
        query = trees[0]
        hits = join.searcher().search(query)
        expected = TreeCollection.from_trees(trees).search(query, 2).run()
        assert [(h.index, h.distance) for h in hits] == [
            (h.index, h.distance) for h in expected
        ]

    def test_closed_engine_rejects_add_many_and_keeps_its_state(self):
        join = StreamingJoin(1)
        join.add(Tree.from_bracket("{a{b}}"))
        join.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            join.add_many([Tree.from_bracket("{a}"), Tree.from_bracket("{b}")])
        assert len(join) == join.stats().trees == 1

    def test_context_manager_closes_on_error(self, tmp_path):
        wal = tmp_path / "stream.wal"
        trees = make_stream_workload(17)[:5]
        with pytest.raises(RuntimeError, match="consumer failed"):
            with StreamingJoin(1, wal=str(wal)) as join:
                join.add_many(trees)
                raise RuntimeError("consumer failed")
        with pytest.raises(InvalidParameterError, match="closed"):
            join.add(trees[0])
        # close() synced the log under the default "batch" policy.
        assert scan_wal(wal)["brackets"] == [t.to_bracket() for t in trees]

    @pytest.mark.parametrize(
        "item", ["{a{b}}", 42, None, object()],
        ids=["bracket", "int", "none", "object"],
    )
    def test_rejected_add_changes_nothing(self, tmp_path, item):
        wal = tmp_path / "stream.wal"
        with StreamingJoin(1, wal=str(wal)) as join:
            join.add(Tree.from_bracket("{a{b}}"))
            with pytest.raises(InvalidParameterError,
                               match=type(item).__name__):
                join.add(item)
            assert len(join) == join.stats().trees == 1
        # The type check runs before the write-ahead append.
        assert scan_wal(wal)["brackets"] == ["{a{b}}"]


class TestQuarantine:
    def test_record_quarantine_counts_and_logs(self):
        join = StreamingJoin(1)
        join.add(Tree.from_bracket("{a{b}}"))
        join.record_quarantine(ValueError("bad bracket"), source="line 2")
        join.record_quarantine("not a tree")
        stats = join.stats()
        assert stats.trees == 1
        assert stats.quarantined_trees == 2
        assert stats.extra["quarantine_log"] == [
            {"error": "bad bracket", "source": "line 2"},
            {"error": "not a tree"},
        ]
        assert stats.as_dict()["quarantined_trees"] == 2

    def test_log_keeps_the_first_32_errors(self):
        join = StreamingJoin(1)
        for k in range(40):
            join.record_quarantine(f"error {k}")
        stats = join.stats()
        assert stats.quarantined_trees == 40
        assert [entry["error"] for entry in stats.extra["quarantine_log"]] == [
            f"error {k}" for k in range(32)
        ]

    def test_clean_stream_has_no_log(self):
        join = StreamingJoin(2)
        join.add_many(make_stream_workload(19))
        stats = join.stats()
        assert stats.quarantined_trees == 0
        assert "quarantine_log" not in stats.extra

    def test_snapshot_log_is_a_copy(self):
        join = StreamingJoin(1)
        join.record_quarantine("first")
        join.stats().extra["quarantine_log"].append({"error": "forged"})
        assert join.stats().extra["quarantine_log"] == [{"error": "first"}]

    def test_skips_leave_pairs_and_positions_alone(self):
        # A skipped item takes no arrival position: pair indices still
        # match a batch join over the trees that did arrive.
        trees = make_stream_workload(20)
        join = StreamingJoin(2)
        for k, tree in enumerate(trees):
            if k % 3 == 0:
                join.record_quarantine("skipped", source=f"item {k}")
            join.add(tree)
        assert triples(join.results()) == triples(batch_join(trees, 2).pairs)
        stats = join.stats()
        assert stats.trees == len(trees)
        assert stats.quarantined_trees == len(range(0, len(trees), 3))
