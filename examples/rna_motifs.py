#!/usr/bin/env python
"""Finding similar RNA secondary structures.

The paper's second motivating application: biologists compare RNA
secondary structures — which fold into hairpins, bulges, and multiloops —
by modeling them as rooted ordered trees and joining on tree edit
distance.

This example encodes secondary structures in dot-bracket notation,
converts them into structure trees (paired regions become internal
``pair`` nodes, unpaired bases become leaves), then:

1. joins a small family of tRNA-like structures against decoys;
2. searches for the structures closest to a query hairpin;
3. compares PartSJ's filter statistics against the SET baseline.

Run with::

    python examples/rna_motifs.py
"""

from repro import TreeCollection
from repro.tree.node import Tree, TreeNode


def structure_tree(dot_bracket: str, sequence: str | None = None) -> Tree:
    """Convert dot-bracket RNA notation into a structure tree.

    ``(`` opens a paired region (an internal node labeled ``pair``),
    ``)`` closes it, and ``.`` is an unpaired base (a leaf labeled with
    the nucleotide when a sequence is given, else ``base``).
    """
    root = TreeNode("rna")
    stack = [root]
    for position, symbol in enumerate(dot_bracket):
        if symbol == "(":
            node = stack[-1].add_child(TreeNode("pair"))
            stack.append(node)
        elif symbol == ")":
            if len(stack) == 1:
                raise ValueError(f"unbalanced ')' at position {position}")
            stack.pop()
        elif symbol == ".":
            label = sequence[position] if sequence else "base"
            stack[-1].add_child(TreeNode(label))
        else:
            raise ValueError(f"unexpected symbol {symbol!r}")
    if len(stack) != 1:
        raise ValueError("unbalanced '(' in structure")
    return Tree(root)


# A tRNA-like cloverleaf: three hairpin arms under one multiloop, plus
# structural variants (arm lengths wobble, loops gain/lose bases).
CLOVERLEAF_FAMILY = [
    "((((..(((....)))..(((....)))..(((....)))..))))",
    "((((..(((....)))..(((...)))...(((....)))..))))",   # one loop shrunk
    "((((..(((....)))..(((....)))..(((.....)))..))))",  # one loop grown
    "((((.((((....))))..(((....)))..(((....)))..))))",  # one stem deepened
]
DECOYS = [
    "(((((((((....)))))))))",  # a single long hairpin
    "((((....))))((((....))))"[:24] + "....",  # fallback linear-ish decoy
    "..........((((......))))..........",
    "((..((..((..((....))..))..))..))",  # nested bulges
]


def main() -> None:
    structures = CLOVERLEAF_FAMILY + DECOYS
    trees = []
    for text in structures:
        try:
            trees.append(structure_tree(text))
        except ValueError:
            # Skip malformed decoys rather than crash the demo.
            continue
    print(f"{len(trees)} structures, sizes {[t.size for t in trees]}")

    # -- Join the family against the decoys --------------------------------
    tau = 6
    structures = TreeCollection.from_trees(trees)  # prepared once, queried 3x
    result = structures.join(tau).run()
    print(f"\nStructure pairs within TED {tau}:")
    for pair in result.pairs:
        kind_i = "cloverleaf" if pair.i < len(CLOVERLEAF_FAMILY) else "decoy"
        kind_j = "cloverleaf" if pair.j < len(CLOVERLEAF_FAMILY) else "decoy"
        print(f"  {pair.i} ({kind_i}) ~ {pair.j} ({kind_j}): TED {pair.distance}")
    family_pairs = [
        p for p in result.pairs
        if p.i < len(CLOVERLEAF_FAMILY) and p.j < len(CLOVERLEAF_FAMILY)
    ]
    print(f"  -> {len(family_pairs)} intra-family pairs recovered")

    # -- Compare filter statistics -----------------------------------------
    for method in ("partsj", "set"):
        stats = structures.join(tau, method=method).run().stats
        print(f"  {stats.method}: {stats.candidates} candidates, "
              f"{stats.ted_calls} TED calls")

    # -- Search with a query hairpin ----------------------------------------
    query = structure_tree("((((..(((....)))..(((....)))..(((...)))..))))")
    hits = structures.search(query, tau=4).run()
    print(f"\nStructures within TED 4 of the query: "
          f"{[(h.index, h.distance) for h in hits]}")


if __name__ == "__main__":
    main()
