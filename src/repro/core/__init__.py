"""PartSJ core: partitioning, subgraphs, the subgraph index, and the join."""

from repro.core.index import InvertedSizeIndex, PostorderFilter
from repro.core.intern import DEFAULT_INTERNER, LabelInterner, pack_twig, unpack_twig
from repro.core.join import PartSJConfig, partsj_join
from repro.core.partition import (
    extract_partition,
    extract_random_partition,
    max_min_size,
    min_partitionable_size,
    partitionable,
)
from repro.core.subgraph import MatchSemantics, Subgraph
from repro.core.treecache import RecordStore, TreeCache

__all__ = [
    "partsj_join",
    "PartSJConfig",
    "MatchSemantics",
    "PostorderFilter",
    "Subgraph",
    "TreeCache",
    "RecordStore",
    "InvertedSizeIndex",
    "LabelInterner",
    "DEFAULT_INTERNER",
    "pack_twig",
    "unpack_twig",
    "partitionable",
    "max_min_size",
    "extract_partition",
    "extract_random_partition",
    "min_partitionable_size",
]
