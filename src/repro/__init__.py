"""repro: a reproduction of *Scaling Similarity Joins over Tree-Structured
Data* (Tang, Cai, Mamoulis; VLDB 2015).

The package implements the paper's PartSJ partition-based tree similarity
join, the tree edit distance (TED) stack it verifies with, the STR/SET
baselines it is evaluated against, dataset generators mirroring the paper's
workloads, and a benchmark harness regenerating every figure of its
evaluation section.

Quick start::

    from repro import Tree, TreeCollection, ted

    col = TreeCollection.from_file("forest.trees")  # prepared once
    result = col.join(tau=2).run()                  # PartSJ (the paper's PRT)
    for pair in result.pairs:
        print(pair.i, pair.j, pair.distance)
    print(result.stats.summary())
    hits = col.search(query, tau=2).run()           # reuses the preparation

One-off calls can use the legacy shims (``similarity_join``,
``similarity_join_rs``, ``similarity_search``, ``stream_join``) — each is
a thin wrapper over a one-shot session with bit-identical results.

``python -m repro experiment <id>`` regenerates the evaluation's figures
(:mod:`repro.bench.experiments`); its ``ablation_filters`` run measures
the join results the published pruning scheme drops.
"""

from repro.api import JOIN_METHODS, similarity_join, stream_join
from repro.baselines import (
    JoinPair,
    JoinResult,
    JoinStats,
    histogram_join,
    nested_loop_join,
    set_join,
    str_join,
)
from repro.core import (
    InvertedSizeIndex,
    MatchSemantics,
    PartSJConfig,
    PostorderFilter,
    partsj_join,
)
from repro.datasets import (
    SyntheticParams,
    TreeGenerator,
    generate_forest,
    load_trees,
    save_trees,
    sentiment_like,
    swissprot_like,
    treebank_like,
)
from repro.errors import (
    EditOperationError,
    IngestError,
    InvalidInputTypeError,
    InvalidParameterError,
    NotPartitionableError,
    PersistenceError,
    ReproError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    StaleSnapshotError,
    TaskTimeoutError,
    TraceFormatError,
    TreeFormatError,
    WALCorruptError,
    WorkerFailureError,
    WorkerStateError,
)
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    format_span_tree,
    get_registry,
    publish_join_stats,
    publish_stream_stats,
    read_jsonl,
    render_prometheus,
    write_jsonl,
)
from repro.resilience import FaultInjector, RetryPolicy
from repro.rsjoin import similarity_join_rs
from repro.search import SearchHit, SimilaritySearcher, similarity_search
from repro.session import (
    JoinPlan,
    QueryPlan,
    RSJoinPlan,
    SearchPlan,
    StreamPlan,
    TreeCollection,
)
from repro.stream import StreamingJoin, StreamJoinService, StreamStats
from repro.ted import ted, ted_within
from repro.tree import Tree, TreeNode, collection_stats, tree_stats

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data model
    "Tree",
    "TreeNode",
    "tree_stats",
    "collection_stats",
    # distances
    "ted",
    "ted_within",
    # sessions (prepare once, query many)
    "TreeCollection",
    "QueryPlan",
    "JoinPlan",
    "RSJoinPlan",
    "SearchPlan",
    "StreamPlan",
    # joins
    "similarity_join",
    "similarity_join_rs",
    "stream_join",
    "StreamingJoin",
    "StreamJoinService",
    "StreamStats",
    "JOIN_METHODS",
    "partsj_join",
    "PartSJConfig",
    "MatchSemantics",
    "PostorderFilter",
    "InvertedSizeIndex",
    "nested_loop_join",
    "str_join",
    "set_join",
    "histogram_join",
    "JoinPair",
    "JoinResult",
    "JoinStats",
    # search
    "similarity_search",
    "SimilaritySearcher",
    "SearchHit",
    # datasets
    "SyntheticParams",
    "TreeGenerator",
    "generate_forest",
    "swissprot_like",
    "treebank_like",
    "sentiment_like",
    "save_trees",
    "load_trees",
    # observability (tracing / metrics / exporters; see repro.obs)
    "Tracer",
    "Span",
    "MetricsRegistry",
    "get_registry",
    "publish_join_stats",
    "publish_stream_stats",
    "write_jsonl",
    "read_jsonl",
    "render_prometheus",
    "format_span_tree",
    # resilience (fault-tolerant execution; see repro.resilience)
    "RetryPolicy",
    "FaultInjector",
    # persistence errors (save/load/WAL; see repro.persist)
    "PersistenceError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "StaleSnapshotError",
    "WALCorruptError",
    # errors
    "ReproError",
    "TreeFormatError",
    "InvalidParameterError",
    "InvalidInputTypeError",
    "TraceFormatError",
    "EditOperationError",
    "NotPartitionableError",
    "WorkerFailureError",
    "WorkerStateError",
    "TaskTimeoutError",
    "IngestError",
]
