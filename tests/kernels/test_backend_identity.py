"""Bit-identity of the numpy backend across the full method matrix.

The backend contract (see ``repro.api`` "Backend selection"): python and
numpy runs return the same pairs, the same exact distances, the same
candidate counts and the same deterministic ``JoinStats`` fields under
every method, tau, worker count and filter configuration.
"""

import random

import pytest

from repro.baselines.histogram_join import histogram_join
from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.set_join import set_join
from repro.baselines.str_join import str_join
from repro.core.join import PartSJConfig, partsj_join
from repro.kernels import numpy_available
from tests.conftest import make_cluster_forest

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

# Timing fields vary run to run; everything else in extra is determined
# by the inputs — including the backend tag, which this test strips and
# checks separately.
_NONDETERMINISTIC = (
    "band_time", "prep_time", "plan_time", "candidate_wall_time",
    "verify_wall_time", "shards",
)


def deterministic_extra(stats) -> dict:
    extra = {
        k: v for k, v in stats.extra.items() if k not in _NONDETERMINISTIC
    }
    return extra


def assert_identical(result_py, result_np):
    assert result_py.stats.extra["backend"] == "python"
    assert result_np.stats.extra["backend"] == "numpy"
    pairs_py = [(p.i, p.j, p.distance) for p in result_py.pairs]
    pairs_np = [(p.i, p.j, p.distance) for p in result_np.pairs]
    assert pairs_py == pairs_np
    sp, sn = result_py.stats, result_np.stats
    assert sp.candidates == sn.candidates
    assert sp.results == sn.results
    assert sp.ted_calls == sn.ted_calls
    assert sp.pairs_considered == sn.pairs_considered
    ep, en = deterministic_extra(sp), deterministic_extra(sn)
    ep.pop("backend"), en.pop("backend")
    assert ep == en


@pytest.fixture(scope="module")
def forest():
    return make_cluster_forest(
        random.Random(0xBEEF), clusters=4, cluster_size=5, base_size=11,
        max_edits=3,
    )


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("workers", [1, 2])
class TestPartSJMatrix:
    def test_default_filters(self, forest, tau, workers):
        py = partsj_join(
            forest, tau, PartSJConfig(backend="python", workers=workers)
        )
        np_ = partsj_join(
            forest, tau, PartSJConfig(backend="numpy", workers=workers)
        )
        assert_identical(py, np_)

    def test_paper_filters(self, forest, tau, workers):
        py = partsj_join(forest, tau, PartSJConfig(
            backend="python", workers=workers, semantics="paper",
            postorder_filter="paper",
        ))
        np_ = partsj_join(forest, tau, PartSJConfig(
            backend="numpy", workers=workers, semantics="paper",
            postorder_filter="paper",
        ))
        assert_identical(py, np_)


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_partsj_filter_variants(forest, tau):
    for options in (
        {"postorder_filter": "off"},
        {"postorder_numbering": "binary"},
        {"partition_strategy": "random", "seed": 13},
    ):
        py = partsj_join(
            forest, tau, PartSJConfig(backend="python", **options)
        )
        np_ = partsj_join(
            forest, tau, PartSJConfig(backend="numpy", **options)
        )
        assert_identical(py, np_)


@pytest.mark.parametrize("join", [
    str_join, set_join, histogram_join, nested_loop_join,
], ids=["str", "set", "histogram", "nested_loop"])
@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("workers", [1, 2])
def test_baseline_matrix(forest, join, tau, workers):
    py = join(forest, tau, workers=workers, backend="python")
    np_ = join(forest, tau, workers=workers, backend="numpy")
    assert_identical(py, np_)


@pytest.mark.parametrize("tau", [1, 2])
def test_streaming_identity(forest, tau):
    from repro.stream import StreamingJoin

    results = {}
    for backend in ("python", "numpy"):
        engine = StreamingJoin(tau, PartSJConfig(backend=backend))
        pairs = []
        for tree in forest:
            pairs.extend(engine.add(tree))
        pairs.extend(engine.flush())
        stats = engine.stats()
        assert stats.extra["backend"] == backend
        results[backend] = (
            [(p.i, p.j, p.distance) for p in pairs],
            stats.candidates,
            stats.extra["ted_calls"],
        )
        engine.close()
    assert results["python"] == results["numpy"]


@pytest.mark.parametrize("tau", [1, 2])
def test_search_identity(forest, tau):
    from repro.search import SimilaritySearcher

    query = forest[0]
    hits = {}
    for backend in ("python", "numpy"):
        searcher = SimilaritySearcher(
            forest, tau, PartSJConfig(backend=backend)
        )
        hits[backend] = [
            (h.index, h.distance) for h in searcher.search(query)
        ]
    assert hits["python"] == hits["numpy"]


def test_vector_probe_engaged_identity(forest, monkeypatch):
    """Force the vector probe path (window crossover to 0) end to end."""
    import repro.kernels.probe as kprobe

    monkeypatch.setattr(kprobe, "SMALL_WINDOW", 0)
    for tau in (1, 2, 3):
        py = partsj_join(forest, tau, PartSJConfig(backend="python"))
        np_ = partsj_join(forest, tau, PartSJConfig(backend="numpy"))
        assert_identical(py, np_)
