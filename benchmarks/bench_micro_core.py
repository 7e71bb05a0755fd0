"""Microbenchmarks: PartSJ building blocks.

Throughput of the pieces Algorithm 1 executes per tree: the LC-RS tree
cache, the MaxMinSize search (Algorithm 3), partition extraction, and
index insert + the probe walk of one tree.
"""

import pytest

from repro.core.index import InvertedSizeIndex
from repro.core.partition import extract_partition, max_min_size
from repro.core.treecache import TreeCache
from repro.datasets.synthetic import SyntheticParams, generate_forest

TAU = 3
DELTA = 2 * TAU + 1


@pytest.fixture(scope="module")
def forest():
    return generate_forest(50, SyntheticParams(avg_size=80), seed=99)


def test_treecache_build(benchmark, forest):
    tree = forest[0]
    cache = benchmark(TreeCache, tree)
    assert cache.size == tree.size


def test_max_min_size(benchmark, forest):
    cache = TreeCache(forest[0])
    gamma = benchmark(max_min_size, cache, DELTA)
    assert gamma >= 1


def test_extract_partition(benchmark, forest):
    cache = TreeCache(forest[0])
    gamma = max_min_size(cache, DELTA)
    subgraphs = benchmark(extract_partition, cache, 0, DELTA, gamma)
    assert len(subgraphs) == DELTA


def test_index_insert(benchmark, forest):
    caches = [TreeCache(tree) for tree in forest]
    partitions = [
        extract_partition(cache, i, DELTA) for i, cache in enumerate(caches)
    ]

    def insert_all():
        index = InvertedSizeIndex(TAU, "safe")
        for cache, subgraphs in zip(caches, partitions):
            index.insert_all(cache.size, subgraphs)
        return index

    index = benchmark(insert_all)
    assert index.total_subgraphs == len(forest) * DELTA


def test_index_probe(benchmark, forest):
    index = InvertedSizeIndex(TAU, "safe")
    caches = [TreeCache(tree) for tree in forest]
    for i, cache in enumerate(caches[:-1]):
        index.insert_all(cache.size, extract_partition(cache, i, DELTA))
    probe_cache = caches[-1]

    def probe_all():
        # The join's probe of one tree: sizes [n - tau, n + tau], fresh
        # pairs.
        candidates = []
        hits, _, _, _ = index.probe(
            probe_cache, "general", False, set(), candidates
        )
        return hits

    hits = benchmark(probe_all)
    assert hits >= 0
