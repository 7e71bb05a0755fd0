#!/usr/bin/env python
"""Quickstart: tree similarity joins in five minutes.

Walks through the core public API:

1. build trees (bracket notation and programmatic construction);
2. compute tree edit distances;
3. prepare a TreeCollection session and join it with PartSJ;
4. cross-check against a baseline method (same session, same pairs);
5. run similarity searches on the session's warm index.

Every query, even a one-off, goes through a session;
``examples/session_reuse.py`` shows the full prepare-once-query-many
workflow this file only samples.

Run with::

    python examples/quickstart.py
"""

from repro import (
    PartSJConfig,
    Tree,
    TreeCollection,
    TreeNode,
    ted,
)


def main() -> None:
    # -- 1. Building trees -------------------------------------------------
    # Bracket notation: {label{child}{child}...} — the TED community's
    # interchange format (RTED / APTED compatible).
    album_a = Tree.from_bracket(
        "{album{title{Abbey Road}}{artist{The Beatles}}{year{1969}}"
        "{track{Come Together}}{track{Something}}}"
    )
    # The same record as another store lists it: one track missing, a typo
    # in the year.
    album_b = Tree.from_bracket(
        "{album{title{Abbey Road}}{artist{The Beatles}}{year{1996}}"
        "{track{Come Together}}}"
    )
    # Or build programmatically:
    root = TreeNode("album")
    root.add_child(TreeNode("title", [TreeNode("Let It Be")]))
    root.add_child(TreeNode("artist", [TreeNode("The Beatles")]))
    album_c = Tree(root)

    print("album_a:", album_a.to_bracket())
    print("album_b:", album_b.to_bracket())
    print(f"sizes: {album_a.size}, {album_b.size}, {album_c.size}")

    # -- 2. Tree edit distance ---------------------------------------------
    # ted() is exact: the minimum number of node inserts/deletes/renames.
    print("\nTED(a, b) =", ted(album_a, album_b))  # rename year + delete 2 nodes
    print("TED(a, c) =", ted(album_a, album_c))

    # -- 3. A similarity self-join ------------------------------------------
    # Collect a few near-duplicate listings, prepare them ONCE as a
    # session, and join with threshold tau.  (A single throwaway call is
    # the same thing: `TreeCollection.from_trees(trees).join(tau).run()`.)
    listings = [album_a, album_b, album_c]
    for bracket in (
        "{album{title{Abbey Road}}{artist{The Beatles}}{year{1969}}"
        "{track{Come Together}}{track{Something}}}",  # exact dup of album_a
        "{album{title{Abbey Road}}{artist{Beatles}}{year{1969}}"
        "{track{Come Together}}{track{Something}}}",  # one rename away
    ):
        listings.append(Tree.from_bracket(bracket))

    collection = TreeCollection.from_trees(listings)
    result = collection.join(tau=2).run()  # PartSJ, exact by default
    print("\nSimilarity join (tau=2):")
    for pair in result.pairs:
        print(f"  trees {pair.i} and {pair.j} are TED {pair.distance} apart")
    print(" ", result.stats.summary())

    # The paper-faithful filter configuration is one switch away (it can
    # miss results in corner cases — see EXPERIMENTS.md finding F1):
    paper_result = collection.join(
        tau=2, config=PartSJConfig(semantics="paper")
    ).run()
    print("  strict matching finds", len(paper_result.pairs), "pairs")

    # -- 4. Baselines return identical results ------------------------------
    # Same session: the baselines see the same trees, and a repeated
    # PartSJ query would be served from the session's result cache.
    for method in ("str", "set", "nested_loop"):
        other = collection.join(tau=2, method=method).run()
        assert other.pair_set() == result.pair_set()
        print(f"  {other.stats.method:>3} agrees "
              f"({other.stats.candidates} candidates)")

    # -- 5. Similarity search ------------------------------------------------
    # Searches share the session's preparation with the joins above.
    query = Tree.from_bracket(
        "{album{title{Abbey Road}}{artist{The Beatles}}{year{1969}}}"
    )
    hits = collection.search(query, tau=3).run()
    print("\nSearch hits within TED 3 of the query:")
    for hit in hits:
        print(f"  #{hit.index} at distance {hit.distance}")


if __name__ == "__main__":
    main()
