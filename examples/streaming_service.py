#!/usr/bin/env python
"""Streaming ingestion and warm-index search (``repro.stream``).

A log-deduplication scenario: structured event records arrive one at a
time, and a deduplicator must (a) report each new record's
near-duplicates *the moment it arrives* and (b) answer ad-hoc similarity
queries from a warm index, without ever rebuilding anything.  Walks
through:

1. ``StreamPlan(source, tau).iter()`` — the generator API: pairs
   yielded as they verify;
2. ``StreamingJoin`` — the engine underneath: live stats, and the
   guarantee that streamed results equal a batch join of the prefix;
3. ``StreamingJoin.searcher()`` — warm-index similarity search mid-ingest.

Run with::

    python examples/streaming_service.py
"""

import random

from repro import StreamingJoin, StreamPlan, Tree, TreeCollection


def make_event(rng: random.Random, service_id: int, spans: int) -> Tree:
    """A synthetic trace: request -> services -> spans, near-duplicated."""
    bracket = "{request{service-%d" % service_id
    for k in range(spans):
        op = rng.choice(("read", "write", "cache"))
        bracket += "{span{%s}{status-%d}}" % (op, rng.randint(0, 1))
    bracket += "}{client{web}}"
    # Some traces carry retry markers: sizes inside a cluster differ by a
    # node or two, so a smaller variant can arrive *after* its larger
    # near-duplicates — the pairs each arrival's larger-side probe finds.
    for _ in range(rng.randint(0, 2)):
        bracket += "{retry}"
    return Tree.from_bracket(bracket + "}")


def make_stream(seed: int = 7, count: int = 40) -> list[Tree]:
    rng = random.Random(seed)
    return [make_event(rng, rng.randint(0, 3), rng.randint(2, 4))
            for _ in range(count)]


def main() -> None:
    events = make_stream()
    tau = 2

    # -- 1. The generator API ----------------------------------------------
    # Pairs come out while the stream is still being consumed; indices are
    # arrival positions.
    first_pairs = []
    for pair in StreamPlan(iter(events), tau).iter():
        first_pairs.append(pair)
        if len(first_pairs) == 3:
            break  # stop early: the prefix join so far is still exact
    print(f"first duplicates on the wire: "
          f"{[(p.i, p.j, p.distance) for p in first_pairs]}")

    # -- 2. The engine and its prefix guarantee ----------------------------
    join = StreamingJoin(tau)
    for event in events:
        join.add(event)
    batch = TreeCollection.from_trees(events).join(tau).run()
    assert [(p.i, p.j, p.distance) for p in join.results()] == [
        (p.i, p.j, p.distance) for p in batch.pairs
    ], "streamed results must equal the batch join of the prefix"
    stats = join.stats()
    print(f"streamed {stats.trees} events at {stats.ingest_rate:.0f}/s: "
          f"{stats.results} duplicate pairs, {stats.candidates} candidates "
          f"({stats.reverse_candidates} among earlier, larger events)")

    # -- 3. Warm-index search mid-ingest -----------------------------------
    searcher = join.searcher()  # a live view: no copy, no rebuild
    probe = events[5]
    hits = searcher.search(probe)
    print(f"query against the warm index: {len(hits)} events within "
          f"tau={tau} of event 5")
    assert any(h.index == 5 and h.distance == 0 for h in hits)


if __name__ == "__main__":
    main()
