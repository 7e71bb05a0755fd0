"""The four workloads: seeded inputs, the timed run protocol and the
correctness checks.

Inputs are generated from the seed, untimed; the program under test only
ever sees the generated bracket text (a dataset file, or lines handed to
the streaming engine).  Every workload is one client in a closed loop.

Run protocol (per workload process):

1. generate the inputs and run one untimed warm-up;
2. run timed reps until ``seconds`` have passed, at least ``MIN_REPS``
   (at most ``MAX_REPS``).  Each rep builds fresh sessions or engines;
   the previous rep's objects are released and ``gc.collect()`` runs,
   untimed, before it;
3. report the median of the reps (latency percentiles pool every rep).

A rep whose outputs fail a check counts all of its operations as failed.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets.realistic import sentiment_like, treebank_like
from repro.datasets.synthetic import SyntheticParams, TreeGenerator
from repro.persist.snapshot import sidecar_path
from repro.session import TreeCollection
from repro.stream.engine import StreamingJoin
from repro.ted import ted
from repro.tree.edits import apply_edit, random_edit
from repro.tree.node import Tree

import common

MIN_REPS = 3
MAX_REPS = 15
WARMUP_TREES = 50
# ``sampled_pairs``: reported pairs re-checked against an unbounded
# exact TED, per batch rep (a fresh sample each rep) and for the stream's
# batch reference.  Away from the default seed, whose digests pin every
# pair, this is the only check of distances that bypasses the Verifier.
SCALES = {
    "full": {"probe_trees": 3000, "verify_clusters": 40, "stream_trees": 2000,
             "sampled_pairs": 3},
    "smoke": {"probe_trees": 80, "verify_clusters": 2, "stream_trees": 60,
              "sampled_pairs": 1},
}

# The shape of the parallel-join workload in ``benchmarks/conftest.py``:
# big bushy trees in clusters of 12.
VERIFY_SHAPE = SyntheticParams(
    avg_size=150, max_fanout=4, max_depth=6, cluster_size=12, decay=0.02
)
# Edits applied to the 12 variants of a cluster: the 12 quantiles of the
# decay model's edit count (Binomial(150, 0.02)).  Drawing the counts at
# random instead moved the DP-call count, and so join_s, by 12% (IQR)
# between seeds; fixed quantiles keep the near/far pair mix the same for
# every seed while shapes, labels and edit positions still vary.
VERIFY_EDITS = (0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6)
# stream-mixed: one search after every SEARCH_EVERY arrivals; the first
# 1/PREFIX_SHARE of the arrivals are already in the engine's log.
SEARCH_EVERY = 3
PREFIX_SHARE = 5
# verify-heavy-w2's worker processes.
POOL_WORKERS = 2


@dataclass
class Inputs:
    """One workload's generated inputs (everything the program sees)."""

    lines: list[str]  # bracket trees; arrival order for the stream
    path: Path  # dataset file of ``lines``
    prefix: int = 0  # stream: arrivals logged before the loop starts
    prefix_path: Path | None = None  # stream: dataset file of the prefix
    queries: list[int] = field(default_factory=list)  # stream: search targets


def verify_trees(seed: int, clusters: int) -> list[Tree]:
    """``clusters`` TreeGen base trees, each expanded into 12 variants."""
    generator = TreeGenerator(VERIFY_SHAPE, seed)
    rng = random.Random(seed)
    labels = VERIFY_SHAPE.labels
    trees = []
    for _ in range(clusters):
        base = generator.generate_tree()
        for edits in VERIFY_EDITS:
            tree = base
            for _ in range(edits):
                tree = apply_edit(tree, random_edit(tree, rng, labels))
            trees.append(tree)
    return trees


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def make_inputs(workload: str, seed: int, scale: str, scratch: Path) -> Inputs:
    """Generate ``workload``'s inputs for ``seed`` into ``scratch``."""
    size = SCALES[scale]
    if workload == "probe-heavy":
        trees = sentiment_like(size["probe_trees"], seed=seed)
    elif workload in ("verify-heavy", "verify-heavy-w2"):
        trees = verify_trees(seed, size["verify_clusters"])
    elif workload == "stream-mixed":
        trees = treebank_like(size["stream_trees"], seed=seed)
        rng = random.Random(seed)
        rng.shuffle(trees)
        lines = [tree.to_bracket() for tree in trees]
        prefix = len(lines) // PREFIX_SHARE
        queries = [
            rng.randrange(k + 1)
            for k in range(prefix, len(lines))
            if (k - prefix) % SEARCH_EVERY == SEARCH_EVERY - 1
        ]
        return Inputs(
            lines=lines,
            path=_write_lines(scratch / "arrivals.trees", lines),
            prefix=prefix,
            prefix_path=_write_lines(scratch / "prefix.trees", lines[:prefix]),
            queries=queries,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    lines = [tree.to_bracket() for tree in trees]
    return Inputs(lines=lines, path=_write_lines(scratch / "data.trees", lines))


# -- the run protocol ---------------------------------------------------------


class Outcome:
    """Operation counts and check failures of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # Set at the first rep: whether a check of the untimed reference
        # every rep is compared with already failed.
        self._reference_bad = None

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def rep(self, ops: int, body) -> None:
        """Run one rep of ``ops`` operations; a raise or failed check fails all.

        A rep compared with a reference that failed its own checks fails
        too, since agreeing with a wrong answer proves nothing.
        """
        if self._reference_bad is None:
            self._reference_bad = bool(self.failures)
        self.attempted += ops
        before = len(self.failures)
        try:
            body()
        except Exception as exc:  # a failing rep is counted, not fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
        if self._reference_bad or len(self.failures) > before:
            self.failed += ops


def rep_loop(seconds: float, outcome: Outcome, ops: int, body) -> None:
    """Timed reps until ``seconds`` have passed (``MIN_REPS``..``MAX_REPS``)."""
    started = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or (
        time.perf_counter() - started < seconds and reps < MAX_REPS
    ):
        gc.collect()
        outcome.rep(ops, body)
        reps += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(lines):
    return [Tree.from_bracket(line) for line in lines]


def _prep_counts(prep) -> tuple:
    info = prep.describe()
    return info["partitioned_trees"], info["small_trees"], info["subgraphs"]


def expected_digests(workload: str, seed: int, scale: str) -> dict:
    """The committed digests that apply to this run (default seed only)."""
    if seed != common.DEFAULT_SEED:
        return {}
    return common.load_expected()["digests"].get(scale, {}).get(workload, {})


def check_sampled_distances(outcome, trees, pairs, count, sample_seed):
    """Re-derive ``count`` reported distances with the unbounded exact TED."""
    rng = random.Random(sample_seed)
    for pair in rng.sample(list(pairs), min(count, len(pairs))):
        exact = ted(trees[pair.i], trees[pair.j])
        outcome.check(
            pair.i < pair.j and exact == pair.distance <= common.TAU,
            f"pair ({pair.i}, {pair.j}) reported {pair.distance}, "
            f"exact TED {exact}",
        )


def run_batch(workload, inputs, seed, scale, seconds) -> dict:
    """probe-heavy, verify-heavy and verify-heavy-w2: one self-join per rep."""
    tau = common.TAU
    workers = POOL_WORKERS if workload == "verify-heavy-w2" else 1
    path = inputs.path
    outcome = Outcome()
    TreeCollection.from_trees(_parse(inputs.lines[:WARMUP_TREES])).join(
        tau, workers=workers
    ).run()

    # Untimed: the sidecar the warm set-up restores, and for w2 the serial
    # join its pairs must equal (serial reps must agree with each other).
    col = TreeCollection.from_file(path, sidecar=None)
    prep_counts = _prep_counts(col.prepare(tau))
    col.save(sidecar_path(path), include_trees=False, source=path)
    trees = col.trees
    reference = {}
    if workers > 1:
        reference["digest"] = common.pairs_digest(col.join(tau).run().pairs)
    del col
    committed = expected_digests(workload, seed, scale).get("pairs")
    sampled = SCALES[scale]["sampled_pairs"]

    setups, warm_setups, joins, backends = [], [], [], set()

    def rep():
        started = time.perf_counter()
        cold = TreeCollection.from_file(path, sidecar=None)
        if workers == 1:
            # Workers re-partition their shards, so w2 set-up is the load.
            cold_counts = _prep_counts(cold.prepare(tau))
        setup = time.perf_counter() - started

        started = time.perf_counter()
        warm = TreeCollection.from_file(path)
        warm_setup = time.perf_counter() - started

        started = time.perf_counter()
        result = cold.join(tau, workers=workers).run()
        join = time.perf_counter() - started

        outcome.check(warm.provenance is not None,
                      "warm set-up did not restore the sidecar")
        outcome.check(_prep_counts(warm.prepare(tau)) == prep_counts,
                      "warm partition counts differ from the cold session's")
        if workers == 1:
            outcome.check(cold_counts == prep_counts,
                          "cold partition counts differ between reps")
        digest = common.pairs_digest(result.pairs)
        reference.setdefault("digest", digest)
        outcome.check(digest == reference["digest"],
                      "join pairs differ from the serial reference")
        if committed is not None:
            outcome.check(digest == committed,
                          "pairs differ from the committed default-seed digest")
        check_sampled_distances(outcome, trees, result.pairs, sampled,
                                f"{seed}:{len(joins)}")
        backends.add(result.stats.extra.get("backend"))
        setups.append(setup)
        warm_setups.append(warm_setup)
        joins.append(join)

    rep_loop(seconds, outcome, 3, rep)
    metrics = {}
    if joins:
        metrics = {
            "setup_s": statistics.median(setups),
            "warm_setup_s": statistics.median(warm_setups),
            "join_s": statistics.median(joins),
        }
    return _finish(outcome, metrics, backends, {
        "setup_s": setups, "warm_setup_s": warm_setups, "join_s": joins,
    }, {"pairs": reference.get("digest")})


def write_prefix_log(inputs, path: Path) -> Path:
    """The write-ahead log of the first ``inputs.prefix`` arrivals."""
    with StreamingJoin(common.TAU, wal=str(path), wal_fsync="batch") as engine:
        for line in inputs.lines[:inputs.prefix]:
            engine.add(Tree.from_bracket(line))
    return path


def feed_arrivals(engine, inputs):
    """The stream loop after the prefix: every arrival, and a search of
    an arrived tree after every ``SEARCH_EVERY``-th.

    Returns ``(arrivals, searches)``: per arrival ``(parse_s, add_s)``,
    per search ``(seconds, hits)`` where the seconds include the parse.
    """
    clock = time.perf_counter
    lines, prefix = inputs.lines, inputs.prefix
    queries = iter(inputs.queries)
    arrivals, searches = [], []
    for k in range(prefix, len(lines)):
        t0 = clock()
        tree = Tree.from_bracket(lines[k])
        t1 = clock()
        engine.add(tree)
        arrivals.append((t1 - t0, clock() - t1))
        if (k - prefix) % SEARCH_EVERY == SEARCH_EVERY - 1:
            query = lines[next(queries)]
            t0 = clock()
            hits = engine.searcher().search(Tree.from_bracket(query))
            searches.append((clock() - t0, hits))
    return arrivals, searches


def run_stream(inputs, seed, scale, seconds) -> dict:
    """stream-mixed: a restarted engine keeps ingesting while answering searches.

    ``setup_s`` is a cold start over the logged prefix (dataset file →
    ``TreeCollection.stream().engine()``); ``warm_setup_s`` restarts from
    the write-ahead log instead (``StreamingJoin.recover``), and the loop
    continues on that engine, WAL attached with ``fsync="batch"``.
    ``join_s`` is the loop wall from the first add to the end of the
    final flush, searches included.
    """
    tau = common.TAU
    lines, prefix = inputs.lines, inputs.prefix
    scratch = inputs.path.parent
    outcome = Outcome()

    # Untimed: the batch join of the same arrival order every stream
    # result must equal, and the log a warm restart replays.
    reference = TreeCollection.from_trees(_parse(lines)).join(tau).run()
    all_pairs = reference.pairs
    prefix_pairs = [p for p in all_pairs if p.j < prefix]
    partners: dict[int, list[tuple[int, int]]] = {}
    for p in all_pairs:
        partners.setdefault(p.i, []).append((p.j, p.distance))
        partners.setdefault(p.j, []).append((p.i, p.distance))
    expected_hits = []
    arrived = prefix
    for q in inputs.queries:
        arrived += SEARCH_EVERY
        expected_hits.append(sorted(
            [(q, 0)] + [(j, d) for j, d in partners.get(q, ()) if j < arrived]
        ))
    check_sampled_distances(outcome, _parse(lines), all_pairs,
                            SCALES[scale]["sampled_pairs"], str(seed))
    expected = expected_digests("stream-mixed", seed, scale)
    if "pairs" in expected:
        outcome.check(common.pairs_digest(all_pairs) == expected["pairs"],
                      "pairs differ from the committed default-seed digest")
    if "search" in expected:
        outcome.check(common.hits_digest(expected_hits) == expected["search"],
                      "search hits differ from the committed digest")
    del reference
    base_wal = write_prefix_log(inputs, scratch / "prefix.wal")

    setups, warm_setups, walls = [], [], []
    ingest, search, backends = [], [], set()
    rep_wal = scratch / "rep.wal"

    def rep():
        started = time.perf_counter()
        cold = TreeCollection.from_file(inputs.prefix_path, sidecar=None)
        engine = cold.stream(tau).engine()
        setup = time.perf_counter() - started
        outcome.check(engine.results() == prefix_pairs,
                      "cold-started engine differs from the batch prefix")
        engine.close()
        del cold, engine

        shutil.copyfile(base_wal, rep_wal)
        started = time.perf_counter()
        engine = StreamingJoin.recover(str(rep_wal), fsync="batch")
        warm_setup = time.perf_counter() - started
        outcome.check(engine.results() == prefix_pairs,
                      "WAL-recovered engine differs from the batch prefix")

        started = time.perf_counter()
        arrivals, searches = feed_arrivals(engine, inputs)
        engine.flush()
        wall = time.perf_counter() - started

        outcome.check(engine.results() == all_pairs,
                      "stream pairs differ from the batch join")
        outcome.check(
            [[(h.index, h.distance) for h in hits] for _, hits in searches]
            == expected_hits,
            "search hits differ from the batch join's partners",
        )
        backends.add(engine.stats().extra.get("backend"))
        engine.close()
        setups.append(setup)
        warm_setups.append(warm_setup)
        walls.append(wall)
        ingest.extend(parse + add for parse, add in arrivals)
        search.extend(seconds for seconds, _ in searches)

    ops = 2 + (len(lines) - prefix) + len(inputs.queries)
    rep_loop(seconds, outcome, ops, rep)
    metrics = {}
    if walls:
        metrics = {
            "setup_s": statistics.median(setups),
            "warm_setup_s": statistics.median(warm_setups),
            "join_s": statistics.median(walls),
            "ingest_trees_per_s": (len(lines) - prefix) / statistics.median(walls),
            "ingest_p50_ms": 1e3 * common.percentile(ingest, 50),
            "ingest_p99_ms": 1e3 * common.percentile(ingest, 99),
            "search_p50_ms": 1e3 * common.percentile(search, 50),
            "search_p99_ms": 1e3 * common.percentile(search, 99),
        }
    return _finish(outcome, metrics, backends, {
        "setup_s": setups, "warm_setup_s": warm_setups, "join_s": walls,
    }, {
        "pairs": common.pairs_digest(all_pairs),
        "search": common.hits_digest(expected_hits),
    }, samples={"ingest": len(ingest), "search": len(search)})


def _finish(outcome, metrics, backends, reps, digests, samples=None) -> dict:
    """The workload's result; ``reps`` holds each timing's per-rep values."""
    if metrics:
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["error_rate"] = outcome.failed / outcome.attempted
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "reps": reps,
        "samples": samples or {},
        "backend": sorted(b for b in backends if b) or None,
        "digests": digests,
    }


def run_workload(workload, seed, scale, seconds, scratch) -> dict:
    """Generate ``workload``'s inputs and run its timed reps."""
    inputs = make_inputs(workload, seed, scale, scratch)
    if workload == "stream-mixed":
        return run_stream(inputs, seed, scale, seconds)
    return run_batch(workload, inputs, seed, scale, seconds)
