"""Simulators for the paper's three real datasets.

The paper evaluates on Swissprot, Treebank and the Stanford Sentiment
treebank — XML/parse-tree dumps we cannot redistribute or download in this
offline reproduction.  As a substitute, each generator below
reproduces the *join-relevant* properties the paper reports (Section 4):
tree count scale, average size, label alphabet size, average and maximum
depth, and characteristic shape (flat/wide vs deep/narrow vs binary),
plus near-duplicate cluster structure so the join has work to do.

Published shape statistics being matched:

=========== ======= ========= ======== ========== =========
dataset     trees   avg size  labels   avg depth  max depth
=========== ======= ========= ======== ========== =========
Swissprot   100K    62.37     84       2.65       4
Treebank    50K     45.12     218      6.93       35
Sentiment   10K     37.31     5        10.84      30
=========== ======= ========= ======== ========== =========

(The paper's "average depth" for Swissprot, 2.65, is consistent with the
mean *node* depth of flat record-like documents whose leaves sit at depth
3-4.)  ``tests/datasets/test_realistic.py`` asserts each generator lands
within tolerance of these numbers.
"""

from __future__ import annotations

import random

from repro.errors import InvalidParameterError
from repro.tree.edits import apply_edit, random_edit
from repro.tree.node import Tree, TreeNode

__all__ = ["swissprot_like", "treebank_like", "sentiment_like", "DATASET_GENERATORS"]


# Near-duplicate tiers: real collections are bimodal — documents are either
# revisions of each other (few edits) or unrelated (many).  Each variant
# draws its edit count from this distribution; the heavy tier keeps a share
# of pairs outside any reasonable join threshold so filters have work to do.
# Each tier: (weight, (min_ops, max_ops), (w_insert, w_delete, w_rename)).
# Diverged revisions are rename-heavy — real-world revisions mostly change
# content inside an unchanged schema — which is precisely the regime where
# the tau-insensitive binary-branch filter (SET) admits false candidates
# while the traversal-string and partition filters stay selective.
_MUTATION_TIERS: list[
    tuple[float, tuple[int, int], tuple[float, float, float]]
] = [
    (0.18, (0, 0), (1.0, 1.0, 1.0)),  # exact duplicate
    (0.27, (1, 1), (1.0, 1.0, 1.0)),
    (0.18, (2, 2), (1.0, 1.0, 1.0)),
    (0.12, (3, 4), (1.0, 1.0, 1.0)),
    (0.10, (5, 7), (0.5, 0.5, 2.0)),  # near-miss band
    (0.15, (9, 18), (0.15, 0.15, 1.7)),  # diverged revision (rename-heavy)
]


def _draw_mutations(rng: random.Random) -> tuple[int, tuple[float, float, float]]:
    roll = rng.random()
    acc = 0.0
    for weight, (low, high), kind_weights in _MUTATION_TIERS:
        acc += weight
        if roll < acc:
            return rng.randint(low, high), kind_weights
    return 0, (1.0, 1.0, 1.0)


def _decay_variants(
    base_trees: list[Tree],
    count: int,
    labels: list[str],
    rng: random.Random,
    mutation_rate: float,
    kind_override: tuple[float, float, float] | None = None,
) -> list[Tree]:
    """Expand base trees into ``count`` near-duplicate variants.

    ``mutation_rate`` scales the tier distribution: the drawn edit count is
    multiplied by ``mutation_rate / 0.03`` (so the documented defaults keep
    the tier counts as-is).  ``kind_override`` replaces every tier's
    (insert, delete, rename) weights — used by the sentiment simulator,
    whose revisions are re-annotations (renames) of a fixed binary parse.
    """
    scale = mutation_rate / 0.03
    trees: list[Tree] = []
    index = 0
    while len(trees) < count:
        base = base_trees[index % len(base_trees)]
        index += 1
        count_drawn, kind_weights = _draw_mutations(rng)
        if kind_override is not None:
            kind_weights = kind_override
        mutations = round(count_drawn * scale)
        tree = base
        for _ in range(mutations):
            tree = apply_edit(tree, random_edit(tree, rng, labels, kind_weights))
        trees.append(tree)
    return trees


def swissprot_like(
    count: int,
    seed: int = 0,
    avg_size: int = 62,
    mutation_rate: float = 0.03,
) -> list[Tree]:
    """Flat, wide protein-record trees (Swissprot's shape).

    Each tree is an ``entry`` element with many flat children (``name``,
    ``accession``, ``organism``, feature records...), leaves at depth 3-4,
    84 distinct labels, and no deeper nesting — matching the published
    statistics (avg size 62.37, avg depth 2.65, max depth 4).
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    # 84 labels: a few structural tags plus synthetic field/value labels.
    structural = ["entry", "name", "accession", "organism", "reference",
                  "feature", "sequence", "comment", "keyword", "dbref"]
    fields = [f"f{k}" for k in range(34)]
    values = [f"v{k}" for k in range(40)]
    labels = structural + fields + values
    assert len(labels) == 84

    def one_base() -> Tree:
        root = TreeNode("entry")
        size = 1
        target = max(8, int(rng.gauss(avg_size, avg_size * 0.18)))
        # Flat record sections in a fixed schema order (real entries share
        # the same tag skeleton; only the content varies): each section has
        # field children, each field may carry one value leaf — depth never
        # exceeds 4.
        section_index = 0
        while size < target:
            tag = structural[1 + section_index % (len(structural) - 1)]
            section_index += 1
            section = root.add_child(TreeNode(tag))
            size += 1
            for k in range(rng.randint(2, 5)):
                if size >= target:
                    break
                field = section.add_child(TreeNode(fields[(section_index * 5 + k) % len(fields)]))
                size += 1
                if size < target and rng.random() < 0.7:
                    field.add_child(TreeNode(rng.choice(values)))
                    size += 1
        return Tree(root)

    base_count = max(1, count // 4)
    bases = [one_base() for _ in range(base_count)]
    return _decay_variants(bases, count, labels, rng, mutation_rate)


def treebank_like(
    count: int,
    seed: int = 0,
    avg_size: int = 45,
    mutation_rate: float = 0.03,
) -> list[Tree]:
    """Deep, narrow parse trees (Treebank's shape).

    English-sentence part-of-speech trees: deep recursive clause structure
    (average depth ~7, maximum capped at 35), 218 distinct labels (phrase
    tags plus a vocabulary of terminals), average size ~45.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    phrase_tags = ["S", "SBAR", "NP", "VP", "PP", "ADJP", "ADVP", "WHNP",
                   "PRT", "QP", "SINV", "NX", "X", "FRAG", "UCP", "CONJP",
                   "INTJ", "LST"]
    pos_tags = [f"P{k}" for k in range(30)]
    words = [f"w{k}" for k in range(170)]
    labels = phrase_tags + pos_tags + words
    assert len(labels) == 218
    max_depth = 35

    def grow(node: TreeNode, depth: int, budget: list[int]) -> None:
        """Recursive clause expansion biased toward depth over width.

        The root level never returns while budget remains, so trees always
        reach their target size; deeper levels return probabilistically,
        which produces the mix of long embedded clauses and short terminal
        runs that gives Treebank its ~7 average node depth.
        """
        while budget[0] > 0:
            roll = rng.random()
            if roll < 0.62 and depth + 2 < max_depth and budget[0] >= 3:
                # Embedded phrase: one level deeper.
                child = node.add_child(TreeNode(rng.choice(phrase_tags)))
                budget[0] -= 1
                grow(child, depth + 1, budget)
                if depth > 0 and rng.random() < 0.75:
                    return
            elif budget[0] >= 2:
                # Terminal: POS tag over a word.
                pos = node.add_child(TreeNode(rng.choice(pos_tags)))
                pos.add_child(TreeNode(rng.choice(words)))
                budget[0] -= 2
                if depth > 0 and rng.random() < 0.45:
                    return
            else:
                node.add_child(TreeNode(rng.choice(pos_tags)))
                budget[0] -= 1
                if depth > 0:
                    return

    def one_base() -> Tree:
        root = TreeNode("S")
        target = max(6, int(rng.gauss(avg_size, avg_size * 0.25)))
        budget = [target - 1]
        grow(root, 0, budget)
        return Tree(root)

    base_count = max(1, count // 4)
    bases = [one_base() for _ in range(base_count)]
    return _decay_variants(bases, count, labels, rng, mutation_rate)


def sentiment_like(
    count: int,
    seed: int = 0,
    avg_size: int = 37,
    mutation_rate: float = 0.04,
) -> list[Tree]:
    """Binarized sentiment parse trees (Stanford Sentiment's shape).

    The sentiment treebank annotates each phrase with one of five sentiment
    classes (labels "0".."4"), and its trees are binarized parses — which
    is why the paper reports only 5 distinct labels, depth up to 30, and
    average size ~37.  A tree of average size 37 with fanout 2 has ~19
    leaves, giving the deep-and-thin shape the paper describes.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    labels = [str(k) for k in range(5)]
    max_depth = 30

    def one_base() -> Tree:
        target = max(3, int(rng.gauss(avg_size, avg_size * 0.2)))
        if target % 2 == 0:
            target += 1  # a full binary tree has an odd node count

        def build(nodes: int, depth: int) -> TreeNode:
            node = TreeNode(rng.choice(labels))
            if nodes <= 2 or depth + 1 >= max_depth:
                # Degrade gracefully at the depth cap: unary chains are not
                # valid binarized parses, so stop with a leaf.
                return node
            # English parses are heavily right-branching: the left child is
            # usually a short constituent and the spine continues right.
            rest = nodes - 1
            roll = rng.random()
            if roll < 0.93:
                left_share = 1
            elif roll < 0.985:
                left_share = min(3, rest - 2)
            else:
                left_share = min(1 + 2 * rng.randint(0, 3), rest - 2)
            left_share = max(1, left_share)
            right_share = rest - left_share
            if right_share <= 0:
                return node
            node.add_child(build(left_share, depth + 1))
            node.add_child(build(right_share, depth + 1))
            return node

        return Tree(build(target, 0))

    base_count = max(1, count // 4)
    bases = [one_base() for _ in range(base_count)]
    # Sentiment revisions re-label phrases of an unchanged binary parse:
    # keep mutations almost exclusively renames so trees stay binarized.
    return _decay_variants(
        bases, count, labels, rng, mutation_rate, kind_override=(0.05, 0.05, 0.9)
    )


DATASET_GENERATORS = {
    "swissprot": swissprot_like,
    "treebank": treebank_like,
    "sentiment": sentiment_like,
}
