"""End-to-end integration: generate -> persist -> load -> join -> search.

These tests chain the public API the way a downstream user would, so a
regression anywhere in the pipeline (generator, IO, session joins,
search) surfaces even if every unit test still passes.
"""

import pytest

import repro
from repro import (
    PartSJConfig,
    SyntheticParams,
    TreeCollection,
    collection_stats,
    generate_forest,
    load_trees,
    save_trees,
    ted,
)


@pytest.fixture(scope="module")
def pipeline_forest(tmp_path_factory):
    """A persisted-and-reloaded forest, as a user's workflow would have it."""
    params = SyntheticParams(avg_size=18, cluster_size=4, decay=0.08)
    forest = generate_forest(40, params, seed=77)
    path = tmp_path_factory.mktemp("data") / "forest.trees.gz"
    save_trees(forest, path, comment="integration fixture")
    return load_trees(path)


@pytest.fixture(scope="module")
def session(pipeline_forest):
    """One session over the reloaded forest, queried by every test."""
    return TreeCollection.from_trees(pipeline_forest)


class TestPipeline:
    def test_round_trip_preserves_statistics(self, pipeline_forest):
        stats = collection_stats(pipeline_forest)
        assert stats.count == 40
        assert stats.average_size > 5

    def test_all_methods_one_result_set(self, session):
        tau = 2
        results = {
            method: session.join(tau, method=method).run()
            for method in ("partsj", "str", "set", "histogram", "nested_loop")
        }
        reference = results["nested_loop"].pair_set()
        assert reference, "fixture must produce a non-empty join"
        for method, result in results.items():
            assert result.pair_set() == reference, method

    def test_join_distances_verified_by_ted(self, pipeline_forest, session):
        result = session.join(2).run()
        for pair in result.pairs[:10]:
            assert ted(pipeline_forest[pair.i], pipeline_forest[pair.j]) == (
                pair.distance
            )

    def test_search_consistent_with_join(self, pipeline_forest, session):
        tau = 2
        join_pairs = session.join(tau).run().pair_set()
        searcher = session.searcher(tau)
        # For each tree, search hits (excluding itself) must equal its join
        # partners.
        for i in range(0, len(pipeline_forest), 7):
            partners = {j for a, j in join_pairs if a == i} | {
                a for a, j in join_pairs if j == i
            }
            hits = {
                h.index for h in searcher.search(pipeline_forest[i])
                if h.index != i
            }
            # Search may also hit trees identical to tree i located at
            # other indices — those are exactly distance<=tau partners too.
            assert hits == partners

    def test_paper_and_safe_configs_agree_here(self, session):
        # The strict-matching configuration with the sound window has never
        # diverged from ground truth in testing; keep a pipeline-level watch.
        tau = 2
        safe = session.join(tau).run().pair_set()
        config = PartSJConfig(semantics="paper", postorder_filter="safe")
        strict = session.join(tau, config=config).run().pair_set()
        assert strict == safe


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_string(self):
        major = int(repro.__version__.split(".")[0])
        assert major >= 1
