"""Prefix equivalence: the streaming engine vs the batch pipeline.

The acceptance bar of the subsystem: over **any arrival order**, the
streamed results after every arrival are bit-identical — same pairs,
same exact distances, same canonical ordering — to a batch
``similarity_join`` over exactly the ingested prefix.  All five join
methods agree on the batch side, so streaming is checked against each of
them.  Each arrival's candidates are those a searcher over the prefix
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

from repro.api import similarity_join, stream_join
from repro.baselines.nested_loop import nested_loop_join
from repro.core.join import PartSJConfig, partsj_join
from repro.errors import InvalidParameterError
from repro.session import TreeCollection
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
        assert stats.candidates == similarity_join(trees, tau).stats.candidates

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_every_batch_method(self, method):
        trees = make_stream_workload(55)
        join = StreamingJoin(2)
        join.add_many(trees)
        batch = similarity_join(trees, 2, method=method)
        assert triples(join.results()) == triples(batch.pairs)

    @pytest.mark.parametrize("config", FILTER_VARIANTS, ids=FILTER_IDS)
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
            similarity_join(join.trees, 2).pairs
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
        for p in similarity_join(trees, 2).pairs:
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
                similarity_join(trees, 2).pairs
            )


class TestStreamJoinApi:
    def test_generator_yields_batch_results(self):
        trees = make_stream_workload(12)
        streamed = sorted(
            (p.i, p.j, p.distance) for p in stream_join(iter(trees), 2)
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
            StreamingJoin(1).add("not a tree")
        # stream_join validates eagerly: the error raises at call time,
        # not at the first next() of the returned generator.
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
        assert stats.ingest_time > 0
        assert stats.ingest_rate > 0
        assert stats.index_entries == stats.index_subgraphs > 0
        assert 0 < stats.reverse_candidates < stats.candidates
        extra = stats.extra
        assert extra["screened"] <= extra["match_tests"] <= extra["probe_hits"]
        payload = stats.as_dict()
        assert payload["trees"] == len(trees)
        assert "ingest_rate" in payload and "extra" in payload
