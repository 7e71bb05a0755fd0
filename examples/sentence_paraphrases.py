#!/usr/bin/env python
"""Grouping sentences with similar parse structure.

The paper's third motivating application (computational linguistics):
sentences with similar parse trees often share semantic structure, so a
tree similarity join over constituency parses groups paraphrase
candidates.

This example hand-writes a handful of s-expression parses (the Treebank
format), converts them into trees, and joins them:

1. parse s-expressions like ``(S (NP (DT the) (NN cat)) (VP ...))``;
2. join with structure-only labels (drop the words) to find sentences
   that *parse* alike regardless of vocabulary;
3. join with full labels to find near-identical sentences;
4. show how the streaming-ready incremental interface of PartSJ matches
   the paper's "refreshed every few minutes" workload.

Run with::

    python examples/sentence_paraphrases.py
"""

from repro import TreeCollection
from repro.tree.node import Tree, TreeNode


def parse_sexpr(text: str) -> Tree:
    """Parse an s-expression constituency tree."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    position = 0

    def parse_node() -> TreeNode:
        nonlocal position
        assert tokens[position] == "("
        position += 1
        node = TreeNode(tokens[position])
        position += 1
        while tokens[position] != ")":
            if tokens[position] == "(":
                node.add_child(parse_node())
            else:
                node.add_child(TreeNode(tokens[position]))
                position += 1
        position += 1  # consume ')'
        return node

    root = parse_node()
    if position != len(tokens):
        raise ValueError("trailing tokens after the root s-expression")
    return Tree(root)


def strip_words(tree: Tree) -> Tree:
    """Keep only the syntactic skeleton (drop leaf word nodes)."""
    def strip(node: TreeNode) -> TreeNode:
        kept = [strip(child) for child in node.children if child.children or
                child.label.isupper()]
        return TreeNode(node.label, kept)

    return Tree(strip(tree.root))


SENTENCES = [
    ("the cat sat on the mat",
     "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT the) (NN mat)))))"),
    ("a dog slept on the rug",
     "(S (NP (DT a) (NN dog)) (VP (VBD slept) (PP (IN on) (NP (DT the) (NN rug)))))"),
    ("the cat sat on a mat",
     "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT a) (NN mat)))))"),
    ("birds sing",
     "(S (NP (NNS birds)) (VP (VBP sing)))"),
    ("fish swim",
     "(S (NP (NNS fish)) (VP (VBP swim)))"),
    ("the old man who lived there smiled",
     "(S (NP (NP (DT the) (JJ old) (NN man)) (SBAR (WHNP (WP who)) "
     "(S (VP (VBD lived) (ADVP (RB there)))))) (VP (VBD smiled)))"),
]


def main() -> None:
    trees = [parse_sexpr(sexpr) for _, sexpr in SENTENCES]
    print("parsed sentences:")
    for index, (sentence, _) in enumerate(SENTENCES):
        print(f"  [{index}] {sentence!r} -> {trees[index].size} nodes")

    # -- Structural paraphrases: drop the words -----------------------------
    skeletons = [strip_words(tree) for tree in trees]
    result = TreeCollection.from_trees(skeletons).join(tau=1).run()
    print("\nSentences with near-identical parse structure (tau=1, no words):")
    for pair in result.pairs:
        print(f"  {SENTENCES[pair.i][0]!r} ~ {SENTENCES[pair.j][0]!r} "
              f"(TED {pair.distance})")

    # -- Near-identical sentences: full labels -------------------------------
    sentences = TreeCollection.from_trees(trees)
    result = sentences.join(tau=2).run()
    print("\nNear-identical sentences (tau=2, words included):")
    for pair in result.pairs:
        print(f"  {SENTENCES[pair.i][0]!r} ~ {SENTENCES[pair.j][0]!r} "
              f"(TED {pair.distance})")

    # -- Streaming use: trees arriving one at a time -------------------------
    # Algorithm 1 needs no offline index: the two-layer index is built
    # on-the-fly while joining, so appending a batch and re-joining models
    # the paper's streaming workload.
    extended = trees + [parse_sexpr(
        "(S (NP (DT the) (NN dog)) (VP (VBD sat) (PP (IN on) "
        "(NP (DT the) (NN mat)))))"
    )]
    before = sentences.join(2).run().pair_set()  # the session's cached result
    after = TreeCollection.from_trees(extended).join(2).run().pair_set()
    new_pairs = after - before
    print(f"\nAfter a new sentence arrives: {len(new_pairs)} new pairs "
          f"{sorted(new_pairs)}")


if __name__ == "__main__":
    main()
