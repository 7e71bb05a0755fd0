"""Flat-array candidate engine vs. the frozen PR-1 reference.

The PR-2 rewrite (interned labels, packed index keys, bitmap subgraphs,
int-array matching, one index entry per subgraph) must be a pure
performance change: for every filter configuration, the join's pair sets,
exact distances and candidate counts must be identical to the
pre-refactor object-graph path, which is preserved verbatim in
``tests/core/_legacy_candidates.py``.
Verification is shared between the two joins, so any disagreement is a
candidate-generation divergence.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.core._legacy_candidates import legacy_partsj_join
from repro.core.join import PartSJConfig, partsj_join
from repro.tree.edits import random_script
from tests.conftest import LABELS, make_random_tree

# Every (numbering x postorder-filter) combination, per the flat-array
# engine's contract: identical results under both postorder_numbering
# modes and all three postorder_filter settings.
CONFIGS = [
    PartSJConfig(postorder_numbering=numbering, postorder_filter=pfilter)
    for numbering in ("general", "binary")
    for pfilter in ("safe", "paper", "off")
] + [
    # The strict matching semantics exercise incoming-edge categories and
    # dangling/empty slots in the flat matcher.
    PartSJConfig(semantics="paper", postorder_filter="safe"),
    PartSJConfig(semantics="paper", postorder_filter="paper"),
]


# Few labels make twigs collide, so the index key's grandchild slots
# decide which subgraphs a node reaches.  A real "" label interns to
# epsilon's id 0.
ALPHABETS = [LABELS, ["a"], ["a", "b"], ["", "x", "é"]]


def pair_list(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


@st.composite
def clustered_forests(draw):
    """Random forests with near-duplicates (the join's natural workload)."""
    labels = draw(st.sampled_from(ALPHABETS))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    clusters = draw(st.integers(min_value=1, max_value=3))
    trees = []
    for _ in range(clusters):
        base = make_random_tree(rng, rng.randint(4, 12), labels)
        trees.append(base)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            edited, _ = random_script(base, rng.randint(0, 4), rng, labels)
            trees.append(edited)
    return trees


@given(forest=clustered_forests(), tau=st.integers(min_value=0, max_value=3))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_flat_engine_equals_legacy_reference(forest, tau):
    for config in CONFIGS:
        flat = partsj_join(forest, tau, config)
        legacy_pairs, legacy_stats = legacy_partsj_join(forest, tau, config)
        assert pair_list(flat.pairs) == pair_list(legacy_pairs), config
        assert flat.stats.candidates == legacy_stats.candidates, config


@pytest.mark.parametrize("tau", [1, 2])
def test_equivalence_on_clustered_forest(rng, tau):
    """Deterministic anchor: a denser forest than hypothesis generates."""
    from tests.conftest import make_cluster_forest

    forest = make_cluster_forest(
        rng, clusters=5, cluster_size=4, base_size=12, max_edits=3
    )
    for config in CONFIGS:
        flat = partsj_join(forest, tau, config)
        legacy_pairs, legacy_stats = legacy_partsj_join(forest, tau, config)
        assert pair_list(flat.pairs) == pair_list(legacy_pairs), config
        assert flat.stats.candidates == legacy_stats.candidates, config


def test_random_partition_strategy_matches_legacy(rng):
    """The ablation path shares the RNG draw sequence with PR 1."""
    from tests.conftest import make_cluster_forest

    forest = make_cluster_forest(
        rng, clusters=3, cluster_size=4, base_size=10, max_edits=3
    )
    config = PartSJConfig(
        partition_strategy="random", postorder_filter="off", seed=17
    )
    flat = partsj_join(forest, 2, config)
    legacy_pairs, _ = legacy_partsj_join(forest, 2, config)
    assert pair_list(flat.pairs) == pair_list(legacy_pairs)
