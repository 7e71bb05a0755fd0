"""Flush-point equivalence: the streaming engine vs the batch pipeline.

The acceptance bar of the subsystem: over **any arrival order**, the
streamed results at every flush point are bit-identical — same pairs,
same exact distances, same canonical ordering — to a batch
``similarity_join`` over exactly the ingested prefix.  All five join
methods agree on the batch side, so streaming is checked against each of
them; the background verification pool (``workers=2``) must change
nothing but latency.
"""

import random

import pytest

from repro.api import similarity_join, stream_join
from repro.core.join import PartSJConfig
from repro.errors import InvalidParameterError
from repro.stream import StreamingJoin
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest, make_random_tree

TAUS = (1, 2, 3)
METHODS = ("partsj", "str", "set", "histogram", "nested_loop")


def triples(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


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
            batch = similarity_join(trees[: k + 1], tau)
            assert triples(join.results()) == triples(batch.pairs), (
                f"prefix {k + 1} diverged (tau={tau}, seed={seed})"
            )

    @pytest.mark.parametrize("tau", TAUS)
    def test_candidate_counts_match_batch(self, tau):
        trees = make_stream_workload(44)
        join = StreamingJoin(tau)
        join.add_many(trees)
        batch = similarity_join(trees, tau)
        # The reverse index reproduces the batch filter exactly, so even
        # the *candidate* counts agree — streaming is not a weaker filter.
        assert join.stats().candidates == batch.stats.candidates

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_every_batch_method(self, method):
        trees = make_stream_workload(55)
        join = StreamingJoin(2)
        join.add_many(trees)
        batch = similarity_join(trees, 2, method=method)
        assert triples(join.results()) == triples(batch.pairs)

    @pytest.mark.parametrize(
        "config",
        [
            PartSJConfig(),
            PartSJConfig.paper(),
            PartSJConfig(postorder_filter="off"),
            PartSJConfig(postorder_numbering="binary"),
            PartSJConfig(partition_strategy="random", postorder_filter="off"),
        ],
        ids=["safe", "paper", "no-postorder", "binary-numbering", "random-cuts"],
    )
    def test_filter_variants_stream_like_batch(self, config):
        trees = make_stream_workload(66)
        join = StreamingJoin(2, config=config)
        join.add_many(trees)
        batch = similarity_join(trees, 2, config=config)
        assert triples(join.results()) == triples(batch.pairs)

    def test_ascending_and_descending_arrival(self):
        trees = sorted(make_stream_workload(77), key=lambda t: t.size)
        for ordering in (trees, trees[::-1]):
            join = StreamingJoin(2)
            join.add_many(ordering)
            batch = similarity_join(ordering, 2)
            assert triples(join.results()) == triples(batch.pairs)

    def test_tau_zero_exact_duplicates(self):
        rng = random.Random(9)
        base = make_random_tree(rng, 8)
        dup = Tree.from_bracket(base.to_bracket())
        trees = [make_random_tree(rng, 8), base, make_random_tree(rng, 6), dup]
        join = StreamingJoin(0)
        join.add_many(trees)
        assert triples(join.results()) == triples(similarity_join(trees, 0).pairs)
        assert join.results()[0].key() == (1, 3)


class TestBackgroundPool:
    @pytest.mark.parametrize("tau", (1, 2))
    def test_workers_change_nothing_but_latency(self, tau):
        trees = make_stream_workload(88)
        with StreamingJoin(tau, workers=2) as join:
            join.add_many(trees)
            join.flush()
            assert join.stats().pending_verification == 0
            streamed = triples(join.results())
        assert streamed == triples(similarity_join(trees, tau).pairs)

    def test_every_prefix_matches_batch_with_pool(self):
        # The workers=2 leg of the prefix property: flushing after every
        # arrival makes each prefix a flush point.  Small workload — each
        # flush blocks on the pool.
        rng = random.Random(10)
        trees = make_cluster_forest(
            rng, clusters=2, cluster_size=3, base_size=9, max_edits=2
        )
        trees += [make_random_tree(rng, rng.randint(1, 4)) for _ in range(3)]
        rng.shuffle(trees)
        with StreamingJoin(2, workers=2) as join:
            for k, tree in enumerate(trees):
                join.add(tree)
                join.flush()
                batch = similarity_join(trees[: k + 1], 2)
                assert triples(join.results()) == triples(batch.pairs)

    def test_mid_stream_flush_points(self):
        trees = make_stream_workload(99)
        cut = len(trees) // 2
        with StreamingJoin(2, workers=2) as join:
            join.add_many(trees[:cut])
            join.flush()
            batch = similarity_join(trees[:cut], 2)
            assert triples(join.results()) == triples(batch.pairs)
            join.add_many(trees[cut:])
            join.flush()
            batch = similarity_join(trees, 2)
            assert triples(join.results()) == triples(batch.pairs)


class TestStreamJoinApi:
    def test_generator_yields_batch_results(self):
        trees = make_stream_workload(12)
        streamed = sorted(
            (p.i, p.j, p.distance) for p in stream_join(iter(trees), 2)
        )
        assert streamed == sorted(triples(similarity_join(trees, 2).pairs))

    @pytest.mark.parametrize("micro_batch", (1, 4, 1000))
    def test_micro_batches_do_not_change_results(self, micro_batch):
        trees = make_stream_workload(13)
        streamed = sorted(
            (p.i, p.j, p.distance)
            for p in stream_join(iter(trees), 2, micro_batch=micro_batch)
        )
        assert streamed == sorted(triples(similarity_join(trees, 2).pairs))

    def test_pairs_reference_arrival_positions(self):
        a = Tree.from_bracket("{a{b}{c{d}}}")
        b = Tree.from_bracket("{a{b}{c{e}}}")
        filler = Tree.from_bracket("{x{y{z{w{v}}}}{u}}")
        pairs = list(stream_join(iter([filler, a, b]), 1))
        assert [(p.i, p.j, p.distance) for p in pairs] == [(1, 2, 1)]

    def test_empty_and_singleton_streams(self):
        assert list(stream_join(iter([]), 2)) == []
        assert list(stream_join(iter([Tree.from_bracket("{a}")]), 2)) == []

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            StreamingJoin(-1)
        with pytest.raises(InvalidParameterError):
            StreamingJoin(1, workers=0)
        with pytest.raises(InvalidParameterError):
            StreamingJoin(1).add("not a tree")
        # stream_join validates eagerly: the error raises at call time,
        # not at the first next() of the returned generator.
        with pytest.raises(InvalidParameterError):
            stream_join(iter([]), 1, micro_batch=0)
        with pytest.raises(InvalidParameterError):
            stream_join(iter([]), -1)

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
        assert stats.pending_verification == 0
        assert stats.ingest_time > 0
        assert stats.ingest_rate > 0
        assert stats.index_entries == stats.index_subgraphs > 0
        assert stats.reverse_nodes > 0
        payload = stats.as_dict()
        assert payload["trees"] == len(trees)
        assert "ingest_rate" in payload and "extra" in payload
