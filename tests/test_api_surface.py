"""Public-API surface snapshot and the checks shared by every entry point.

``repro.__all__`` is pinned exactly — adding or removing a public name is
a deliberate act that must touch this snapshot — and the modules of the
retired one-shot shims and of the object LC-RS layer stay gone.  Every
session entry point runs the same tau and worker checks, and the test
configuration's deprecation rule covers the whole package.
"""

import importlib
import warnings

import pytest

import repro
import repro.tree
from repro.errors import InvalidParameterError
from repro.session import JOIN_METHOD_NAMES
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
    "StreamingJoin", "StreamStats",
    "partsj_join", "PartSJConfig", "MatchSemantics",
    "PostorderFilter", "InvertedSizeIndex", "nested_loop_join",
    "str_join", "set_join", "histogram_join",
    "JoinPair", "JoinResult", "JoinStats",
    # search
    "SimilaritySearcher", "SearchHit",
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

TREES = [Tree.from_bracket(s) for s in ("{a{b}}", "{a{b}{c}}")]

COLLECTION = repro.TreeCollection.from_trees(TREES)

# Every session entry point that takes a tau, or a worker count, called
# with the given value.
TAU_ENTRY_POINTS = {
    "join": lambda tau: COLLECTION.join(tau),
    "join_with": lambda tau: COLLECTION.join_with(TREES, tau),
    "search": lambda tau: COLLECTION.search(TREES[0], tau),
    "searcher": lambda tau: COLLECTION.searcher(tau),
    "stream": lambda tau: COLLECTION.stream(tau),
    "StreamPlan": lambda tau: repro.StreamPlan(iter(TREES), tau),
    "StreamingJoin": lambda tau: repro.StreamingJoin(tau),
}

WORKERS_ENTRY_POINTS = {
    "join": lambda workers: COLLECTION.join(1, workers=workers),
    "join_with": lambda workers: COLLECTION.join_with(TREES, 1, workers=workers),
}

LCRS_NAMES = {
    "BinaryNode", "BinaryTree", "EdgeKind", "to_lcrs", "from_lcrs",
    "validate_binary_tree",
}


class TestSurfaceSnapshot:
    def test_all_is_pinned_exactly(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_join_method_names(self):
        assert sorted(JOIN_METHOD_NAMES) == [
            "histogram", "nested_loop", "partsj", "prt", "rel", "set", "str",
        ]

    def test_session_methods_exist(self):
        for method in ("join", "join_with", "search", "searcher", "stream",
                       "prepare", "is_prepared", "prepared_taus", "stats",
                       "from_trees", "from_file"):
            assert callable(getattr(COLLECTION, method)), method

    @pytest.mark.parametrize("name", [
        "repro.api", "repro.rsjoin", "repro.tree.binary", "repro.tree.lcrs",
    ])
    def test_retired_modules_are_gone(self, name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)

    def test_tree_package_has_no_lcrs_objects(self):
        assert not LCRS_NAMES & set(repro.tree.__all__)


class TestCentralizedValidation:
    """The same domain checks (repro.params) guard every session entry
    point, at plan build: nothing is prepared or pulled first."""

    @pytest.mark.parametrize("tau", [-1, 1.5], ids=["negative", "non-integer"])
    @pytest.mark.parametrize("entry", sorted(TAU_ENTRY_POINTS))
    def test_rejects_bad_tau(self, entry, tau):
        with pytest.raises(InvalidParameterError, match="tau"):
            TAU_ENTRY_POINTS[entry](tau)

    @pytest.mark.parametrize("workers", [0, 1.5, "two"])
    @pytest.mark.parametrize("entry", sorted(WORKERS_ENTRY_POINTS))
    def test_rejects_bad_workers(self, entry, workers):
        with pytest.raises(InvalidParameterError, match="workers"):
            WORKERS_ENTRY_POINTS[entry](workers)


class TestDeprecationPolicy:
    """pytest.ini turns a DeprecationWarning attributed to any repro
    module into an error, with no module exempt, so tier-1 fails when the
    library calls a deprecated API; test code's own warnings stay
    warnings."""

    @staticmethod
    def _warn_from(module):
        warnings.warn_explicit(
            "deprecated", DeprecationWarning, "module.py", 1, module=module
        )

    @pytest.mark.parametrize("module", ["repro", "repro.search"])
    def test_library_deprecations_are_errors(self, module):
        with pytest.raises(DeprecationWarning):
            self._warn_from(module)

    @pytest.mark.parametrize("module", ["reproduce", "tests.test_api_surface"])
    def test_other_deprecations_stay_warnings(self, module):
        with warnings.catch_warnings(record=True) as caught:
            self._warn_from(module)
        assert [w.category for w in caught] == [DeprecationWarning]
