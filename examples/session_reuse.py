#!/usr/bin/env python
"""Prepare once, query many: the TreeCollection session API.

The paper's pipeline (partition -> two-layer index -> verify) pays its
preparation cost per *collection*, not per call — and so does the
session API.  This example walks through the scenarios where that
matters:

1. prepare a collection once and run a multi-tau join workload on it;
2. inspect a query plan with ``.explain()`` before running it;
3. serve many similarity searches from the warm per-tau index;
4. R x S joins against a second prepared collection;
5. hand the collection off to the streaming engine and keep ingesting.

A session (``TreeCollection``) is the one entry point for every query.
A one-off call is a one-shot session,
``TreeCollection.from_trees(trees).join(tau).run()``; keep the session
whenever the same trees are queried more than once — other thresholds,
searches, R x S joins, re-queries — and a generator of arriving trees
streams through ``StreamPlan(source, tau).iter()``.

Run with::

    python examples/session_reuse.py
"""

import time

from repro import PartSJConfig, Tree, TreeCollection


def build_catalog() -> list[Tree]:
    """A small product-catalog-like forest with near-duplicate clusters."""
    brackets = [
        "{album{title{Abbey Road}}{artist{The Beatles}}{year{1969}}"
        "{track{Come Together}}{track{Something}}}",
        "{album{title{Abbey Road}}{artist{The Beatles}}{year{1996}}"
        "{track{Come Together}}}",
        "{album{title{Abbey Road}}{artist{Beatles}}{year{1969}}"
        "{track{Come Together}}{track{Something}}}",
        "{album{title{Let It Be}}{artist{The Beatles}}{year{1970}}"
        "{track{Across the Universe}}}",
        "{album{title{Let It Be}}{artist{The Beatles}}{year{1970}}"
        "{track{Across the Universe}}{track{Get Back}}}",
        "{album{title{Help}}{artist{The Beatles}}{year{1965}}}",
        "{single{title{Help}}{artist{The Beatles}}{year{1965}}}",
    ]
    return [Tree.from_bracket(b) for b in brackets]


def main() -> None:
    catalog = build_catalog()

    # -- 1. One session, many thresholds ------------------------------------
    col = TreeCollection.from_trees(catalog)
    print(f"session: {col!r}")
    for tau in (1, 2, 3):
        result = col.join(tau).run()
        print(f"  join(tau={tau}): {len(result.pairs)} pairs "
              f"(prep reused: {result.stats.extra['prep_reused']})")
    # An identical re-query is served from the session's result cache.
    started = time.perf_counter()
    col.join(2).run()
    print(f"  re-query join(tau=2): {time.perf_counter() - started:.6f}s "
          "(result cache)")

    # -- 2. Plans explain themselves before running -------------------------
    plan = col.join(2, config=PartSJConfig(semantics="paper"))
    explain = plan.explain()
    print("\nexplain(join tau=2, paper semantics):")
    print(f"  method={explain['method']} filter={explain['filter']}")
    print(f"  prepared={explain['prepared']} "
          f"cached_result={explain['cached_result']}")
    plan.run()
    print(f"  after run: prepared={plan.explain()['prepared']}")

    # -- 3. Many searches on the warm index ----------------------------------
    queries = [
        Tree.from_bracket("{album{title{Abbey Road}}{artist{The Beatles}}"
                          "{year{1969}}}"),
        Tree.from_bracket("{album{title{Help}}{artist{The Beatles}}"
                          "{year{1965}}}"),
    ]
    print("\nsearches against the warm tau=2 index:")
    for query in queries:
        hits = col.search(query, 2).run()
        print(f"  {query.to_bracket()[:42]}...: "
              f"{[(h.index, h.distance) for h in hits]}")

    # -- 4. R x S against a second prepared collection ------------------------
    other = TreeCollection.from_trees([
        Tree.from_bracket("{album{title{Abbey Road}}{artist{The Beatles}}"
                          "{year{1969}}{track{Come Together}}"
                          "{track{Something}}}"),
        Tree.from_bracket("{album{title{Revolver}}{artist{The Beatles}}"
                          "{year{1966}}}"),
    ])
    rs = col.join_with(other, 1).run()
    print(f"\nR x S (tau=1): {[(p.i, p.j, p.distance) for p in rs.pairs]}")
    # Another threshold against the same right side re-prepares nothing.
    rs3 = col.join_with(other, 3).run()
    print(f"R x S (tau=3): {len(rs3.pairs)} pairs (merged session reused)")

    # -- 5. Streaming handoff -------------------------------------------------
    # Replay the collection through the incremental engine and keep going.
    engine = col.stream(1).engine()
    try:
        new_arrival = Tree.from_bracket(
            "{album{title{Abbey Road}}{artist{The Beatles}}{year{1969}}"
            "{track{Come Together}}{track{Something}}}"
        )
        fresh_pairs = engine.add(new_arrival)
        print(f"\nstreaming handoff: {len(engine)} trees ingested, "
              f"new arrival matched {len(fresh_pairs)} partners")
    finally:
        engine.close()

    # The session's accumulated state, for the curious:
    stats = col.stats()
    print(f"\nsession stats: {stats['trees']} trees, "
          f"taus prepared {col.prepared_taus()}, "
          f"{stats['cached_results']} cached results, "
          f"{stats['verifier_annotations']} cached annotations")
    assert col.join(2).run() is col.join(2).run()  # cache, provably


if __name__ == "__main__":
    main()
