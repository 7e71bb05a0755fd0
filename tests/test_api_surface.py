"""Public-API surface snapshot and shim-deprecation behavior.

Two guards:

1. ``repro.__all__`` is pinned exactly — adding or removing a public name
   is a deliberate act that must touch this snapshot.
2. The legacy one-shot shims warn (``DeprecationWarning``) exactly once
   per process each, pointing at the session API; the pytest
   configuration additionally turns repro-internal DeprecationWarnings
   into errors, so the library can never regress into calling its own
   shims.
"""

import warnings

import pytest

import repro
from repro.api import _reset_shim_warnings
from repro.errors import InvalidParameterError
from repro.tree.node import Tree

EXPECTED_EXPORTS = {
    # data model
    "Tree", "TreeNode", "tree_stats", "collection_stats",
    # distances
    "ted", "ted_within",
    # sessions
    "TreeCollection", "QueryPlan", "JoinPlan", "RSJoinPlan",
    "SearchPlan", "StreamPlan",
    # joins
    "similarity_join", "similarity_join_rs", "stream_join",
    "StreamingJoin", "StreamJoinService", "StreamStats",
    "JOIN_METHODS", "partsj_join", "PartSJConfig", "MatchSemantics",
    "PostorderFilter", "InvertedSizeIndex", "nested_loop_join",
    "str_join", "set_join", "histogram_join",
    "JoinPair", "JoinResult", "JoinStats",
    # search
    "similarity_search", "SimilaritySearcher", "SearchHit",
    # datasets
    "SyntheticParams", "TreeGenerator", "generate_forest",
    "swissprot_like", "treebank_like", "sentiment_like",
    "save_trees", "load_trees",
    # observability
    "Tracer", "Span", "MetricsRegistry", "get_registry",
    "publish_join_stats", "publish_stream_stats",
    "write_jsonl", "read_jsonl", "render_prometheus", "format_span_tree",
    # resilience
    "RetryPolicy", "FaultInjector",
    # errors
    "ReproError", "TreeFormatError", "InvalidParameterError",
    "InvalidInputTypeError", "TraceFormatError",
    "EditOperationError", "NotPartitionableError",
    "WorkerFailureError", "WorkerStateError", "TaskTimeoutError",
    "IngestError",
    # persistence errors
    "PersistenceError", "SnapshotFormatError", "SnapshotIntegrityError",
    "StaleSnapshotError", "WALCorruptError",
    # metadata
    "__version__",
}

SHIM_TREES = [Tree.from_bracket(s) for s in ("{a{b}}", "{a{b}{c}}")]

SHIMS = {
    "similarity_join": lambda: repro.similarity_join(SHIM_TREES, 1),
    "similarity_join_rs": lambda: repro.similarity_join_rs(
        SHIM_TREES, SHIM_TREES, 1
    ),
    "similarity_search": lambda: repro.similarity_search(
        SHIM_TREES[0], SHIM_TREES, 1
    ),
    "stream_join": lambda: list(repro.stream_join(iter(SHIM_TREES), 1)),
}


class TestSurfaceSnapshot:
    def test_all_is_pinned_exactly(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_join_methods_registry_names(self):
        assert sorted(repro.JOIN_METHODS) == [
            "histogram", "nested_loop", "partsj", "prt", "rel", "set", "str",
        ]

    def test_session_methods_exist(self):
        col = repro.TreeCollection.from_trees(SHIM_TREES)
        for method in ("join", "join_with", "search", "searcher", "stream",
                       "prepare", "is_prepared", "prepared_taus", "stats",
                       "from_trees", "from_file"):
            assert callable(getattr(col, method)), method


class TestShimDeprecationWarnings:
    @pytest.mark.parametrize("name", sorted(SHIMS))
    def test_shim_warns_exactly_once_per_process(self, name):
        _reset_shim_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SHIMS[name]()
            SHIMS[name]()  # second call must stay silent
        shim_warnings = [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
            and name in str(w.message)
        ]
        assert len(shim_warnings) == 1
        assert "TreeCollection" in str(shim_warnings[0].message)

    def test_reset_rearms_the_warning(self):
        _reset_shim_warnings()
        with warnings.catch_warnings(record=True) as first:
            warnings.simplefilter("always")
            SHIMS["similarity_join"]()
        _reset_shim_warnings()
        with warnings.catch_warnings(record=True) as second:
            warnings.simplefilter("always")
            SHIMS["similarity_join"]()
        for caught in (first, second):
            assert any(
                issubclass(w.category, DeprecationWarning) for w in caught
            )

    def test_shims_match_sessions_bit_for_bit(self):
        """The equivalence claim of the shims, on the surface itself."""
        _reset_shim_warnings()
        col = repro.TreeCollection.from_trees(SHIM_TREES)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert [
                (p.i, p.j, p.distance)
                for p in repro.similarity_join(SHIM_TREES, 1).pairs
            ] == [(p.i, p.j, p.distance) for p in col.join(1).run().pairs]
            assert [
                (h.index, h.distance)
                for h in repro.similarity_search(SHIM_TREES[0], SHIM_TREES, 1)
            ] == [
                (h.index, h.distance)
                for h in col.search(SHIM_TREES[0], 1).run()
            ]


class TestCentralizedValidation:
    """The same domain checks guard every entry point (repro.params)."""

    def test_similarity_join_rejects_negative_tau(self):
        with pytest.raises(InvalidParameterError, match="tau"):
            repro.similarity_join(SHIM_TREES, -1)

    def test_similarity_join_rejects_non_integer_tau(self):
        with pytest.raises(InvalidParameterError, match="tau"):
            repro.similarity_join(SHIM_TREES, 1.5)

    def test_similarity_join_rejects_bad_workers(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            repro.similarity_join(SHIM_TREES, 1, workers=0)
        with pytest.raises(InvalidParameterError, match="workers"):
            repro.similarity_join(SHIM_TREES, 1, workers=1.5)

    def test_stream_join_rejects_bad_tau_eagerly(self):
        with pytest.raises(InvalidParameterError, match="tau"):
            repro.stream_join(iter(SHIM_TREES), -1)

    def test_rs_join_rejects_bad_workers_first_class(self):
        with pytest.raises(InvalidParameterError, match="workers"):
            repro.similarity_join_rs(SHIM_TREES, SHIM_TREES, 1, workers=0)

    def test_search_rejects_negative_tau(self):
        with pytest.raises(InvalidParameterError, match="tau"):
            repro.similarity_search(SHIM_TREES[0], SHIM_TREES, -3)

    def test_streaming_engine_shares_the_checks(self):
        with pytest.raises(InvalidParameterError, match="tau"):
            repro.StreamingJoin(-1)
        with pytest.raises(InvalidParameterError, match="tau"):
            repro.StreamingJoin(1.5)
