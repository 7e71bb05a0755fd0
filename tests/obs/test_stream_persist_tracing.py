"""Tracing across the streaming and persistence tiers.

Same invariant as the batch tier: spans cover flushes, WAL appends /
syncs / recovery and snapshot save / load, while pairs and stats stay
bit-identical with tracing on or off.
"""

import random

import pytest

from repro.obs.metrics import MetricsRegistry, publish_stream_stats
from repro.obs.trace import Tracer
from repro.persist.snapshot import load_collection, save_collection
from repro.session import TreeCollection
from repro.stream.engine import StreamingJoin
from tests.conftest import make_cluster_forest


@pytest.fixture(scope="module")
def arrivals():
    rng = random.Random(23)
    return make_cluster_forest(
        rng, clusters=3, cluster_size=3, base_size=8, max_edits=2
    )


def stream_pairs(trees, tau, tracer=None, **kwargs):
    with StreamingJoin(tau, tracer=tracer, **kwargs) as join:
        pairs = []
        for tree in trees:
            pairs.extend(join.add(tree))
        pairs.extend(join.flush())
        return pairs, join.stats()


class TestStreamingTracing:
    def test_traced_stream_is_bit_identical(self, arrivals):
        plain, plain_stats = stream_pairs(arrivals, 1)
        tracer = Tracer()
        traced, traced_stats = stream_pairs(arrivals, 1, tracer=tracer)
        key = lambda pairs: [(p.i, p.j, p.distance) for p in pairs]
        assert key(traced) == key(plain)
        assert traced_stats.trees == plain_stats.trees
        assert traced_stats.results == plain_stats.results
        assert traced_stats.candidates == plain_stats.candidates
        names = {span.name for span in tracer.finished()}
        assert "stream.flush" in names

    def test_wal_append_and_sync_spans(self, arrivals, tmp_path):
        wal = tmp_path / "stream.wal"
        tracer = Tracer()
        stream_pairs(arrivals[:4], 1, tracer=tracer, wal=str(wal))
        names = [span.name for span in tracer.finished()]
        assert names.count("wal.append") == 4
        assert "wal.sync" in names
        appended = [s for s in tracer.finished() if s.name == "wal.append"]
        assert [s.attrs["arrival"] for s in appended] == [0, 1, 2, 3]

    def test_recover_span_with_record_count(self, arrivals, tmp_path):
        wal = tmp_path / "stream.wal"
        plain, _ = stream_pairs(arrivals, 1, wal=str(wal))
        tracer = Tracer()
        engine = StreamingJoin.recover(str(wal), tracer=tracer)
        try:
            recovered = engine.results()
        finally:
            engine.close()
        key = lambda pairs: [(p.i, p.j, p.distance) for p in pairs]
        assert key(recovered) == key(plain)
        (span,) = [s for s in tracer.finished() if s.name == "wal.recover"]
        assert span.attrs["records"] == len(arrivals)

    def test_stream_plan_threads_tracer(self, arrivals):
        col = TreeCollection.from_trees(arrivals)
        tracer = Tracer()
        pairs = col.stream(1).run(trace=tracer)
        plain = col.stream(1).run()
        key = lambda ps: [(p.i, p.j, p.distance) for p in ps]
        assert key(pairs) == key(plain)
        assert any(s.name == "stream.flush" for s in tracer.finished())


class TestSnapshotTracing:
    def test_save_and_load_spans(self, arrivals, tmp_path):
        col = TreeCollection.from_trees(arrivals)
        col.prepare(1)
        path = tmp_path / "session.repro-idx"
        tracer = Tracer()
        save_collection(col, path, tracer=tracer)
        loaded = load_collection(path, tracer=tracer)
        names = [span.name for span in tracer.finished()]
        assert "snapshot.save" in names
        assert "snapshot.load" in names
        save_span = next(s for s in tracer.finished()
                         if s.name == "snapshot.save")
        assert save_span.attrs["trees"] == len(arrivals)
        load_span = next(s for s in tracer.finished()
                         if s.name == "snapshot.load")
        assert load_span.attrs["trees"] == len(arrivals)
        assert load_span.attrs["restored_taus"] == [1]
        # The traced load restored a working session.
        assert len(loaded) == len(arrivals)

    def test_untraced_save_load_unchanged(self, arrivals, tmp_path):
        col = TreeCollection.from_trees(arrivals)
        path = tmp_path / "session.repro-idx"
        save_collection(col, path)
        assert len(load_collection(path)) == len(arrivals)


class TestEngineObservability:
    def test_each_flush_and_the_first_close_record_one_span(self, arrivals):
        tracer = Tracer()
        join = StreamingJoin(1, tracer=tracer)
        join.add_many(arrivals[:3])
        join.flush()
        join.flush()
        join.close()
        join.close()  # already closed: no second flush
        names = [span.name for span in tracer.finished()]
        assert names.count("stream.flush") == 3

    def test_publishing_each_arrival_tracks_the_engine(self, arrivals):
        registry = MetricsRegistry()
        with StreamingJoin(1) as join:
            for tree in arrivals:
                join.add(tree)
                stats = join.stats()
                publish_stream_stats(stats, registry=registry)
                snap = registry.snapshot()
                assert snap["repro_stream_trees"][()] == len(join)
                assert snap["repro_stream_results"][()] == len(join.pairs)
                assert snap["repro_stream_candidates"][()] == stats.candidates
        assert snap["repro_stream_snapshots_total"][()] == len(arrivals)
