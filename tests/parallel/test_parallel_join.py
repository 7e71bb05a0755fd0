"""Shard-boundary equivalence: the parallel executor vs the serial engine.

The acceptance bar of the subsystem: at every ``workers`` setting the join
returns a **bit-identical** result — same pair set, same exact distances,
same canonical ordering — including degenerate shard layouts (all trees
one size, collections smaller than the worker count, empty ranges).  Real
worker pools are started, so the workloads are kept small.  The baselines
start none: they run in the calling process at any ``workers``.
"""

import json
import multiprocessing
import random

import pytest

from repro.cli import main
from repro.core.join import PartSJConfig, partsj_join
from repro.datasets.io import save_trees
from repro.errors import InvalidParameterError
from repro.parallel import executor
from repro.parallel.executor import parallel_partsj_join
from repro.session import TreeCollection
from repro.tree.node import Tree, TreeNode
from tests.conftest import LABELS, make_cluster_forest, make_random_tree

WORKER_COUNTS = (1, 2, 4)
TAUS = (1, 2, 3)


def triples(result):
    return [(p.i, p.j, p.distance) for p in result.pairs]


def make_workload(seed, clusters=3, cluster_size=3, base_size=10, max_edits=3):
    rng = random.Random(seed)
    return make_cluster_forest(
        rng, clusters=clusters, cluster_size=cluster_size,
        base_size=base_size, max_edits=max_edits,
    )


# Owned-tree and verifier counters that must merge to the exact serial
# values.
SERIAL_COUNTERS = (
    "probe_hits", "match_tests", "match_hits", "dedup_skips", "screened",
    "small_pool_pairs", "partitioned_trees", "small_trees",
    "subgraphs_built", "gamma_total", "lb_filtered", "ub_accepted",
    "ted_early_exits", "certified",
)


class TestShardBoundaryProperty:
    @pytest.mark.parametrize("seed", (101, 202, 303))
    @pytest.mark.parametrize("tau", TAUS)
    def test_identical_pairs_across_worker_counts(self, seed, tau):
        trees = make_workload(seed)
        reference = None
        for workers in WORKER_COUNTS:
            result = partsj_join(trees, tau, PartSJConfig(workers=workers))
            if reference is None:
                reference = triples(result)
            else:
                assert triples(result) == reference, (seed, tau, workers)

    @pytest.mark.parametrize("tau", TAUS)
    def test_owned_counters_merge_to_serial(self, tau):
        trees = make_workload(404, clusters=4, cluster_size=3)
        serial = partsj_join(trees, tau)
        parallel = partsj_join(trees, tau, PartSJConfig(workers=4))
        assert triples(parallel) == triples(serial)
        assert parallel.stats.candidates == serial.stats.candidates
        assert parallel.stats.ted_calls == serial.stats.ted_calls
        assert parallel.stats.pairs_considered == serial.stats.pairs_considered
        for key in SERIAL_COUNTERS:
            assert parallel.stats.extra[key] == serial.stats.extra[key], key
        assert (
            parallel.stats.extra["total_index_entries"]
            == serial.stats.extra["total_index_entries"]
        )
        # The sharded run did extra band work and reported it separately.
        assert parallel.stats.extra["band_trees"] >= 0
        assert serial.stats.extra["band_trees"] == 0


class TestDegenerateShards:
    def test_all_trees_one_size(self, rng):
        # One size run: every shard boundary splits it and every band is
        # the full prefix — the hardest layout for the dedup invariant.
        trees = [make_random_tree(rng, 9) for _ in range(16)]
        for tau in (1, 2):
            serial = partsj_join(trees, tau)
            parallel = partsj_join(trees, tau, PartSJConfig(workers=4))
            assert triples(parallel) == triples(serial)

    def test_collection_smaller_than_worker_count(self, rng):
        trees = [make_random_tree(rng, rng.randint(4, 9)) for _ in range(3)]
        serial = partsj_join(trees, 2)
        parallel = partsj_join(trees, 2, PartSJConfig(workers=8))
        assert triples(parallel) == triples(serial)

    def test_empty_and_single_tree(self):
        assert partsj_join([], 1, PartSJConfig(workers=4)).pairs == []
        one = [Tree.from_bracket("{a{b}}")]
        assert partsj_join(one, 1, PartSJConfig(workers=4)).pairs == []

    def test_tiny_trees_use_small_pool_across_shards(self, rng):
        # All trees below the partitionable minimum: candidate generation
        # runs entirely through the small-tree pool, which the handoff
        # band must replicate per shard.
        trees = [make_random_tree(rng, rng.randint(1, 4)) for _ in range(14)]
        for tau in (1, 2):
            serial = partsj_join(trees, tau)
            parallel = partsj_join(trees, tau, PartSJConfig(workers=3))
            assert triples(parallel) == triples(serial)

    def test_size_gaps_larger_than_tau(self, rng):
        # Empty size ranges between shards: bands must stay empty across
        # the gaps and no cross-gap candidates exist.
        trees = [make_random_tree(rng, 4) for _ in range(6)]
        trees += [make_random_tree(rng, 20) for _ in range(6)]
        trees += [make_random_tree(rng, 40) for _ in range(6)]
        serial = partsj_join(trees, 2)
        parallel = partsj_join(trees, 2, PartSJConfig(workers=3))
        assert triples(parallel) == triples(serial)


class TestExecutorConfig:
    def test_workers_one_is_serial_engine(self, sample_forest):
        # The executor entry point itself falls back to the serial path.
        serial = partsj_join(sample_forest, 2)
        fallback = parallel_partsj_join(
            sample_forest, 2, PartSJConfig(workers=1)
        )
        assert triples(fallback) == triples(serial)
        assert "shards" not in fallback.stats.extra

    def test_respects_filter_configuration(self, sample_forest):
        config = PartSJConfig(
            semantics="paper", postorder_filter="safe", workers=3
        )
        serial = partsj_join(
            sample_forest, 2, PartSJConfig(semantics="paper")
        )
        parallel = partsj_join(sample_forest, 2, config)
        assert triples(parallel) == triples(serial)

    def test_invalid_workers_rejected(self, sample_forest):
        with pytest.raises(InvalidParameterError, match="workers"):
            partsj_join(sample_forest, 1, PartSJConfig(workers=0))
        col = TreeCollection.from_trees(sample_forest)
        with pytest.raises(InvalidParameterError, match="workers"):
            col.join(1, method="str", workers=0)

    def test_api_workers_composes_with_config(self, sample_forest):
        col = TreeCollection.from_trees(sample_forest)
        result = col.join(
            1, config=PartSJConfig(semantics="paper"), workers=2
        ).run()
        assert result.stats.extra["workers"] == 2
        assert triples(result) == triples(
            col.join(1, semantics="paper").run()
        )

    def test_parallel_stats_surface_shard_breakdown(self, sample_forest):
        result = partsj_join(sample_forest, 2, PartSJConfig(workers=2))
        shards = result.stats.extra["shards"]
        assert len(shards) >= 2
        for entry in shards:
            assert {"shard", "size_range", "owned_trees", "band_trees",
                    "candidates", "results", "probe_time", "index_time",
                    "band_time", "verify_time", "wall_time"} <= set(entry)
        assert result.stats.extra["workers"] == 2
        assert sum(entry["candidates"] for entry in shards) == (
            result.stats.candidates
        )
        assert sum(entry["results"] for entry in shards) == len(result.pairs)


class TestParallelVerificationAllMethods:
    # PartSJ is the one method that verifies in worker processes; the
    # baselines' workers=2 runs are TestBaselinesRunInline's.
    @pytest.mark.parametrize("join", [
        lambda t, tau, w: partsj_join(t, tau, PartSJConfig(workers=w)),
    ], ids=["partsj"])
    def test_each_method_identical_with_two_workers(self, join):
        trees = make_workload(555)
        serial = join(trees, 2, 1)
        parallel = join(trees, 2, 2)
        assert triples(parallel) == triples(serial)
        assert parallel.stats.candidates == serial.stats.candidates
        assert parallel.stats.ted_calls == serial.stats.ted_calls


# The verifier funnel counters a baseline join reports.
BASELINE_COUNTERS = ("lb_filtered", "certified", "ub_accepted",
                     "ted_early_exits")


def funnel(result):
    stats = result.stats
    return (
        triples(result), stats.candidates, stats.ted_calls,
        stats.pairs_considered,
        *(stats.extra[key] for key in BASELINE_COUNTERS),
    )


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything starts a worker pool."""

    def refuse():
        raise AssertionError("a baseline join started a worker pool")

    monkeypatch.setattr(executor, "pool_context", refuse)


BASELINE_TAUS = pytest.mark.parametrize("tau", (0, 1, 2, 3))
BASELINE_METHODS = pytest.mark.parametrize(
    "method", ["str", "set", "histogram", "nested_loop"]
)


class TestBaselinesRunInline:
    """A baseline asked for workers=2 runs the serial join in-process.

    Each entry point is checked for every baseline at tau 0-3, with
    ``pool_context`` patched to raise: the serial (workers=1) run and the
    workers=2 run must agree on every pair, distance and funnel counter.
    """

    @BASELINE_TAUS
    @BASELINE_METHODS
    def test_session_join(self, method, tau, no_pool):
        trees = make_workload(555)
        serial = TreeCollection.from_trees(trees).join(
            tau, method=method
        ).run()
        col = TreeCollection.from_trees(trees)
        plan = col.join(tau, method=method, workers=2)
        assert plan.explain()["workers"] == 1
        assert "workers=1" in repr(plan)
        result = plan.run()
        assert funnel(result) == funnel(serial)
        # One cache key: the serial plan is served the same result.
        assert col.join(tau, method=method).run() is result

    @BASELINE_TAUS
    @BASELINE_METHODS
    def test_join_with(self, method, tau, no_pool):
        trees = make_workload(555)
        # Half of the left side rides along, so every tau has R x S pairs.
        right = trees[1::2] + make_workload(556)
        serial = TreeCollection.from_trees(trees).join_with(
            right, tau, method=method
        ).run()
        plan = TreeCollection.from_trees(trees).join_with(
            right, tau, method=method, workers=2
        )
        assert plan.workers == 1
        assert funnel(plan.run()) == funnel(serial)

    @BASELINE_TAUS
    @BASELINE_METHODS
    def test_cli_join(self, method, tau, tmp_path, capsys, no_pool):
        trees = make_workload(555)
        serial = TreeCollection.from_trees(trees).join(
            tau, method=method
        ).run()
        path = tmp_path / "forest.trees"
        save_trees(trees, path)
        assert main([
            "join", str(path), "--tau", str(tau), "--method", method,
            "--workers", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [list(t) for t in triples(serial)]
        stats = payload["stats"]
        assert stats["workers"] == 1
        assert (stats["candidates"], stats["ted_calls"]) == (
            serial.stats.candidates, serial.stats.ted_calls
        )
        assert [stats["extra"][key] for key in BASELINE_COUNTERS] == [
            serial.stats.extra[key] for key in BASELINE_COUNTERS
        ]


class TestSpawnContext:
    """Spawn workers unpickle the collection (bracket text per tree)."""

    @staticmethod
    def chain(depth, labels):
        root = node = TreeNode(labels[0])
        for k in range(1, depth):
            node = node.add_child(TreeNode(labels[k % len(labels)]))
        return Tree(root)

    def test_spawn_join_matches_serial(self, monkeypatch):
        trees = make_workload(777)
        trees.append(self.chain(3000, "abc"))
        trees.append(self.chain(3001, "abc"))
        pools = []

        def spawn_context():
            pools.append("spawn")
            return multiprocessing.get_context("spawn")

        monkeypatch.setattr(executor, "pool_context", spawn_context)
        serial = partsj_join(trees, 2)
        assert (len(trees) - 2, len(trees) - 1) in {
            p.key() for p in serial.pairs
        }
        parallel = partsj_join(trees, 2, PartSJConfig(workers=2))
        assert triples(parallel) == triples(serial)
        assert parallel.stats.extra["worker_failures"] == 0
        assert pools == ["spawn"]  # one spawn pool per join


class TestCliWorkers:
    def test_join_workers_json(self, tmp_path, capsys):
        path = tmp_path / "forest.trees"
        assert main([
            "generate", "--count", "24", "--seed", "9", "--size", "14",
            "--out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "join", str(path), "--tau", "2", "--json", "--workers", "2",
        ]) == 0
        parallel_payload = json.loads(capsys.readouterr().out)
        assert main(["join", str(path), "--tau", "2", "--json"]) == 0
        serial_payload = json.loads(capsys.readouterr().out)
        assert parallel_payload["pairs"] == serial_payload["pairs"]
        assert parallel_payload["stats"]["workers"] == 2
        shards = parallel_payload["stats"]["extra"]["shards"]
        assert shards and all("wall_time" in entry for entry in shards)
