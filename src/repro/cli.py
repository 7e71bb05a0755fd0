"""Command line interface: ``python -m repro`` or the ``repro-trees`` script.

Subcommands
-----------
- ``generate``   — write a dataset file (synthetic or realistic simulator).
- ``stats``      — shape statistics of a dataset file, paper-style
  (``--stream`` ingests stdin incrementally and reports ingest statistics).
- ``join``       — similarity self-join(s) over a dataset file: the file
  is prepared **once** as a :class:`repro.TreeCollection` session and
  ``--tau`` may repeat, so ``join data --tau 1 --tau 2 --tau 3`` shares
  the parse/intern/cache work across all three joins (``--explain``
  prints each query's structured plan; ``--stream`` joins trees arriving
  on stdin instead, emitting pairs as they verify).
- ``search``     — similarity search in a dataset file; ``--query`` may
  repeat and all queries share one prepared session (repl-style usage:
  many queries, one preparation).

``join`` and ``search`` persist their prepared session with
``--save-index PATH`` and restore one with ``--load-index PATH`` (or
automatically from ``<input>.repro-idx``); ``join --stream`` takes
``--wal PATH`` to log arrivals crash-safely and ``--recover`` to replay
such a log; ``stats --snapshot PATH`` prints a snapshot's provenance
and checksum status.  See :mod:`repro.persist`.
- ``ted``        — tree edit distance between two bracket-notation trees.
- ``experiment`` — run one of the paper's figure reproductions.
- ``trace``      — render a JSONL trace written by ``join --trace PATH``
  as an indented span tree with durations and attributes.

Observability: ``join --trace PATH`` records a structured trace of the
run (partition / probe / index / verify spans, including per-shard spans
relayed from worker processes) and writes it as JSONL; ``stats
--metrics`` (with a dataset file or ``--stream``) emits Prometheus text
exposition instead of the human report.  See :mod:`repro.obs`.

Streaming stdin format (``join --stream`` / ``stats --stream``)
---------------------------------------------------------------
One tree per line.  With ``--format brackets`` (the default), each line
is a bracket-notation tree, e.g. ``{a{b}{c{d}}}``; blank lines and lines
starting with ``#`` are skipped.  With ``--format ndjson``, each line is
a JSON object with the bracket string under the ``"tree"`` key, e.g.
``{"tree": "{a{b}}"}`` (other keys are ignored).  Pairs are printed as
``i<TAB>j<TAB>distance`` the moment they verify, where ``i < j`` are
0-based arrival positions; ``--json`` switches to NDJSON events
(``{"pair": [i, j, distance]}`` per result, one final
``{"stats": {...}}`` line with ingest rate and index size).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.baselines.common import SizeSortedCollection
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import render_figure
from repro.core.join import PartSJConfig
from repro.datasets.io import save_trees
from repro.datasets.realistic import DATASET_GENERATORS
from repro.datasets.synthetic import SyntheticParams, generate_forest
from repro.errors import (
    IngestError,
    InvalidParameterError,
    ReproError,
    TreeFormatError,
)
from repro.obs.export import (
    format_span_tree,
    read_jsonl,
    render_prometheus,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, publish_stream_stats
from repro.obs.trace import Tracer
from repro.session import TreeCollection
from repro.ted.api import ted
from repro.tree.node import Tree
from repro.tree.stats import collection_stats

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trees",
        description=(
            "Tree similarity joins (reproduction of Tang et al., VLDB 2015)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="generate a dataset file")
    gen.add_argument("--dataset", default="synthetic",
                     choices=["synthetic", *sorted(DATASET_GENERATORS)])
    gen.add_argument("--count", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path (.gz supported)")
    gen.add_argument("--fanout", type=int, default=3, help="synthetic: max fanout")
    gen.add_argument("--depth", type=int, default=5, help="synthetic: max depth")
    gen.add_argument("--labels", type=int, default=20, help="synthetic: label count")
    gen.add_argument("--size", type=int, default=80, help="synthetic: avg tree size")
    gen.add_argument("--decay", type=float, default=0.05, help="synthetic: Dz")

    stats = commands.add_parser("stats", help="dataset shape statistics")
    stats.add_argument("input", nargs="?", default=None,
                       help="dataset file (omit with --stream)")
    stats.add_argument("--stream", action="store_true",
                       help="ingest trees from stdin incrementally and report "
                            "ingest rate / index size (see the module help "
                            "for the line format)")
    stats.add_argument("--tau", type=int, default=1,
                       help="streaming: threshold the incremental index is "
                            "built for (default 1)")
    stats.add_argument("--format", default="brackets",
                       choices=["brackets", "ndjson"],
                       help="streaming: stdin line format")
    stats.add_argument("--snapshot", metavar="PATH", default=None,
                       help="inspect a session snapshot instead: print its "
                            "format/library versions, sections and per-"
                            "section CRC status (exit 2 if any checksum "
                            "fails)")
    stats.add_argument("--metrics", action="store_true",
                       help="emit the statistics as Prometheus text "
                            "exposition (version 0.0.4) instead of the "
                            "human-readable report")

    join = commands.add_parser(
        "join", help="similarity self-join",
        description="Similarity self-join of a dataset file, or — with "
                    "--stream — of trees arriving on stdin: one bracket "
                    "tree per line (--format brackets, default) or one "
                    'JSON object {"tree": "<bracket>"} per line '
                    "(--format ndjson).  Streamed result pairs are "
                    "emitted as soon as they verify.",
    )
    join.add_argument("input", nargs="?", default=None,
                      help="dataset file (omit with --stream)")
    join.add_argument("--tau", type=int, required=True, action="append",
                      help="TED threshold; repeatable — all thresholds "
                           "share one prepared collection session")
    join.add_argument("--stream", action="store_true",
                      help="read trees from stdin incrementally, emitting "
                           "pairs as they verify (partsj only)")
    join.add_argument("--format", default="brackets",
                      choices=["brackets", "ndjson"],
                      help="streaming: stdin line format")
    join.add_argument("--on-error", default="fail", choices=["fail", "skip"],
                      help="streaming: malformed stdin lines abort the join "
                           "with the offending line number (fail, default) "
                           "or are quarantined — skipped, counted in the "
                           "final stats, reported as events (skip)")
    join.add_argument("--method", default="partsj",
                      choices=["partsj", "str", "set", "histogram", "nested_loop"])
    join.add_argument("--semantics", default="safe", choices=["safe", "paper"],
                      help="partsj: matching semantics")
    join.add_argument("--postorder-filter", default="safe",
                      choices=["safe", "paper", "off"],
                      help="partsj: postorder window variant")
    join.add_argument("--pairs", action="store_true",
                      help="print every result pair (default: stats only)")
    join.add_argument("--json", action="store_true", help="machine-readable output")
    join.add_argument("--explain", action="store_true",
                      help="print each query's structured plan (method, "
                           "filter config, shard plan, index stats) before "
                           "running it")
    join.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial; results identical; "
                           "per-shard timings appear under extra.shards in "
                           "--json output); --stream runs serially and "
                           "accepts only 1")
    join.add_argument("--save-index", metavar="PATH", default=None,
                      help="after the join(s), save the prepared session as "
                           "a checksummed snapshot sidecar (trees stay in "
                           "the dataset file; the sidecar records its "
                           "digest, so a changed dataset is detected)")
    join.add_argument("--load-index", metavar="PATH", default=None,
                      help="load a previously saved snapshot explicitly "
                           "(default: auto-discover <input>.repro-idx; a "
                           "corrupt or stale snapshot warns and rebuilds "
                           "cold — it never changes results)")
    join.add_argument("--trace", metavar="PATH", default=None,
                      help="write the run's spans as a JSONL trace to PATH "
                           "(one JSON object per span; render it with the "
                           "'trace' subcommand)")
    join.add_argument("--wal", metavar="PATH", default=None,
                      help="streaming: write every arrival to an append-only "
                           "write-ahead log before indexing it, so a crash "
                           "mid-stream loses at most the unsynced tail")
    join.add_argument("--recover", action="store_true",
                      help="streaming: replay --wal first (tau and filter "
                           "config come from the log header and must match "
                           "--tau), emit the recovered pairs, then continue "
                           "ingesting stdin with the log still attached")

    search = commands.add_parser(
        "search", help="similarity search",
        description="Similarity search in a dataset file.  --query may be "
                    "given multiple times; the collection is prepared once "
                    "and every query hits the warm per-tau index.",
    )
    search.add_argument("input", help="dataset file")
    search.add_argument("--query", required=True, action="append",
                        help="query tree in bracket notation (repeatable; "
                             "all queries share one prepared session)")
    search.add_argument("--tau", type=int, required=True)
    search.add_argument("--explain", action="store_true",
                        help="print each query's structured plan before "
                             "running it")
    search.add_argument("--save-index", metavar="PATH", default=None,
                        help="after the queries, save the prepared session "
                             "as a checksummed snapshot sidecar")
    search.add_argument("--load-index", metavar="PATH", default=None,
                        help="load a previously saved snapshot explicitly "
                             "(default: auto-discover <input>.repro-idx; "
                             "corrupt or stale snapshots warn and rebuild "
                             "cold)")

    trace_cmd = commands.add_parser(
        "trace", help="render a saved JSONL trace as a span tree",
        description="Pretty-print a trace written by join --trace PATH: "
                    "spans are nested under their parents and shown with "
                    "durations in milliseconds and their attributes.",
    )
    trace_cmd.add_argument("file", help="JSONL trace file (one span per line)")

    ted_cmd = commands.add_parser("ted", help="tree edit distance of two trees")
    ted_cmd.add_argument("tree1", help="bracket notation")
    ted_cmd.add_argument("tree2", help="bracket notation")

    experiment = commands.add_parser(
        "experiment", help="reproduce one of the paper's figures"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", default=None,
                            choices=["smoke", "small", "medium"])
    experiment.add_argument("--quiet", action="store_true",
                            help="suppress per-cell progress lines")
    experiment.add_argument("--workers", type=int, default=1,
                            help="worker processes per join (1 = serial)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "synthetic":
        params = SyntheticParams(
            max_fanout=args.fanout,
            max_depth=args.depth,
            num_labels=args.labels,
            avg_size=args.size,
            decay=args.decay,
        )
        trees = generate_forest(args.count, params, seed=args.seed)
        comment = f"synthetic f={args.fanout} d={args.depth} l={args.labels} t={args.size}"
    else:
        trees = DATASET_GENERATORS[args.dataset](args.count, seed=args.seed)
        comment = f"{args.dataset}-like simulator"
    written = save_trees(trees, args.out, comment=f"{comment} seed={args.seed}")
    print(f"wrote {written} trees to {args.out}")
    return 0


def _parse_stream_line(line: str, lineno: int, fmt: str):
    """One stdin line to a Tree; malformed input raises IngestError
    carrying the 1-based line number."""
    if fmt == "ndjson":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(
                f"stdin line {lineno}: invalid JSON ({exc})"
            ) from None
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("tree"), str)
        ):
            raise IngestError(
                f"stdin line {lineno}: expected an object with a "
                '"tree" key holding a bracket string'
            )
        line = payload["tree"]
    try:
        return Tree.from_bracket(line)
    except (TreeFormatError, ReproError) as exc:
        raise IngestError(f"stdin line {lineno}: {exc}") from exc


def _iter_stream_trees(lines, fmt: str, on_error: str = "fail",
                       on_quarantine=None):
    """Parse the streaming stdin format (see the module docstring).

    ``on_error="fail"`` lets the :class:`~repro.errors.IngestError` (with
    the offending line number) escape; ``"skip"`` quarantines the line —
    ``on_quarantine(lineno, error)`` is invoked and ingestion continues.
    """
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tree = _parse_stream_line(line, lineno, fmt)
        except IngestError as exc:
            if on_error != "skip":
                raise
            if on_quarantine is not None:
                on_quarantine(lineno, exc)
            continue
        yield tree


def _require_stream_input(args: argparse.Namespace) -> None:
    if args.input not in (None, "-"):
        raise InvalidParameterError(
            "--stream reads from stdin; drop the dataset file argument"
        )


def _cmd_stats_stream(args: argparse.Namespace) -> int:
    from repro.stream import StreamingJoin

    with StreamingJoin(args.tau) as join:
        for tree in _iter_stream_trees(sys.stdin, args.format):
            join.add(tree)
        stats = join.stats()
    if args.metrics:
        registry = MetricsRegistry()
        publish_stream_stats(stats, registry=registry)
        sys.stdout.write(render_prometheus(registry))
        return 0
    print(
        f"streamed {stats.trees} trees at {stats.ingest_rate:.1f} trees/s "
        f"(tau={args.tau})"
    )
    print(
        f"warm index: {stats.index_entries} entries / "
        f"{stats.index_subgraphs} subgraphs, small pool {stats.small_pool}"
    )
    print(
        f"results {stats.results}, candidates {stats.candidates} "
        f"({stats.reverse_candidates} from earlier, larger arrivals)"
    )
    histogram = SizeSortedCollection(join.trees).size_histogram()
    if histogram:
        sizes = [size for size, _ in histogram]
        peak_size, peak_count = max(histogram, key=lambda run: run[1])
        print(
            f"size histogram: {len(histogram)} distinct sizes in "
            f"[{sizes[0]}, {sizes[-1]}], mode {peak_size} ({peak_count} trees)"
        )
    return 0


def _open_session(args: argparse.Namespace) -> TreeCollection:
    """The dataset as a session, restoring a snapshot when one applies.

    ``--load-index`` names the snapshot explicitly; otherwise
    ``<input>.repro-idx`` is auto-discovered.  Either way an unusable
    snapshot (corrupt, stale, wrong version) only warns and rebuilds
    cold — the snapshot path can never change results.
    """
    sidecar = args.load_index if args.load_index else "auto"
    return TreeCollection.from_file(args.input, sidecar=sidecar)


def _save_session(collection: TreeCollection, args: argparse.Namespace) -> None:
    if not args.save_index:
        return
    path = collection.save(args.save_index, include_trees=False,
                           source=args.input)
    print(f"# saved session snapshot to {path}", file=sys.stderr)


def _cmd_stats_snapshot(args: argparse.Namespace) -> int:
    from repro.persist import inspect_container

    info = inspect_container(args.snapshot)
    status = "ok" if info["crc_ok"] else "CORRUPT"
    print(
        f"snapshot {info['path']}: format v{info['format_version']}, "
        f"written by repro {info['library_version']}, {info['bytes']} bytes, "
        f"checksums {status}"
    )
    for section in info["sections"]:
        flag = "ok" if section["crc_ok"] else "CORRUPT"
        print(f"  {section['name']:<12} {section['bytes']:>12} bytes  crc {flag}")
    return 0 if info["crc_ok"] else 2


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.snapshot is not None:
        return _cmd_stats_snapshot(args)
    if args.stream:
        _require_stream_input(args)
        return _cmd_stats_stream(args)
    if args.input is None:
        raise InvalidParameterError(
            "stats needs a dataset file (or --stream / --snapshot)"
        )
    collection = TreeCollection.from_file(args.input)
    if args.metrics:
        shape = collection_stats(collection.trees)
        registry = MetricsRegistry()
        labels = {"dataset": str(args.input)}
        for name, help_text, value in (
            ("repro_dataset_trees", "Trees in the dataset file", shape.count),
            ("repro_dataset_size_min", "Smallest tree (nodes)",
             shape.min_size),
            ("repro_dataset_size_max", "Largest tree (nodes)",
             shape.max_size),
            ("repro_dataset_size_avg", "Average tree size (nodes)",
             shape.average_size),
            ("repro_dataset_labels", "Distinct node labels",
             shape.distinct_labels),
            ("repro_dataset_depth_max", "Maximum node depth (root = 0)",
             shape.max_depth),
        ):
            registry.gauge(name, help_text, **labels).set(value)
        sys.stdout.write(render_prometheus(registry))
        return 0
    print(collection_stats(collection.trees).describe())
    histogram = collection.sorted.size_histogram()
    sizes = [size for size, _ in histogram]
    peak_size, peak_count = max(histogram, key=lambda run: run[1])
    print(
        f"size histogram: {len(histogram)} distinct sizes in "
        f"[{sizes[0]}, {sizes[-1]}], mode {peak_size} ({peak_count} trees)"
    )
    return 0


def _cmd_join_stream(args: argparse.Namespace, tau: int) -> int:
    from repro.stream import StreamingJoin

    if args.method != "partsj":
        raise InvalidParameterError(
            "--stream supports the partsj method only (every method returns "
            "the same pairs; run the stream through partsj)"
        )
    if args.workers != 1:
        raise InvalidParameterError(
            f"--stream supports --workers 1 only, got {args.workers} (a "
            "stream verifies each arrival inline, in this process)"
        )
    if args.recover and args.wal is None:
        raise InvalidParameterError("--recover needs --wal PATH (the log to replay)")
    config = PartSJConfig(
        semantics=args.semantics, postorder_filter=args.postorder_filter
    )
    emitted = 0

    def emit(pairs) -> None:
        nonlocal emitted
        for pair in pairs:
            emitted += 1
            if args.json:
                print(json.dumps(
                    {"pair": [pair.i, pair.j, pair.distance]}, sort_keys=True
                ), flush=True)
            else:
                print(f"{pair.i}\t{pair.j}\t{pair.distance}", flush=True)

    tracer = Tracer() if args.trace else None

    if args.recover:
        # tau and filter config come from the log header (they shaped the
        # logged state); the CLI tau is cross-checked, not applied.
        engine = StreamingJoin.recover(args.wal, tracer=tracer)
        if engine.tau != tau:
            engine.close()
            raise InvalidParameterError(
                f"--tau {tau} does not match the recovered log "
                f"(written at tau={engine.tau}); pass the log's tau"
            )
        recovery = dict(engine.stats().extra["wal"]["recovered"])
        recovered_pairs = engine.results()
        if args.json:
            print(json.dumps({"recovered": {
                **recovery, "pairs": len(recovered_pairs),
            }}, sort_keys=True), flush=True)
        else:
            torn = (
                f", dropped {recovery['torn_bytes']} torn tail bytes"
                if recovery.get("torn_bytes") else ""
            )
            print(
                f"# recovered {recovery['records']} trees / "
                f"{len(recovered_pairs)} pairs from {args.wal}{torn}",
                file=sys.stderr, flush=True,
            )
        emit(recovered_pairs)
    else:
        engine = StreamingJoin(tau, config=config, wal=args.wal, tracer=tracer)

    with engine as join:
        def quarantine(lineno: int, error: IngestError) -> None:
            join.record_quarantine(error, source=f"stdin line {lineno}")
            if args.json:
                print(json.dumps(
                    {"quarantine": {"line": lineno, "error": str(error)}},
                    sort_keys=True,
                ), flush=True)
            else:
                print(f"# quarantined stdin line {lineno}: {error}",
                      file=sys.stderr, flush=True)

        for tree in _iter_stream_trees(
            sys.stdin, args.format, on_error=args.on_error,
            on_quarantine=quarantine,
        ):
            emit(join.add(tree))
        join.flush()
        stats = join.stats()
    if tracer is not None:
        written = write_jsonl(tracer.finished(), args.trace)
        print(f"# wrote {written} trace spans to {args.trace}",
              file=sys.stderr)
    if args.json:
        print(json.dumps({"stats": stats.as_dict()}, sort_keys=True))
    else:
        quarantined = (
            f", quarantined {stats.quarantined_trees}"
            if stats.quarantined_trees else ""
        )
        print(
            f"# streamed {stats.trees} trees, {emitted} pairs, "
            f"{stats.candidates} candidates, "
            f"{stats.ingest_rate:.1f} trees/s ingest, "
            f"index {stats.index_entries} entries{quarantined}",
            file=sys.stderr,
        )
    return 0


def _join_payload(result, workers: int) -> dict:
    return {
        "stats": {
            "method": result.stats.method,
            "tau": result.stats.tau,
            "trees": result.stats.tree_count,
            "workers": workers,
            "candidates": result.stats.candidates,
            "results": result.stats.results,
            "candidate_time": result.stats.candidate_time,
            "probe_time": result.stats.probe_time,
            "index_time": result.stats.index_time,
            "verify_time": result.stats.verify_time,
            "ted_calls": result.stats.ted_calls,
            "extra": result.stats.extra,
        },
        "pairs": [[p.i, p.j, p.distance] for p in result.pairs],
    }


def _cmd_join(args: argparse.Namespace) -> int:
    taus = args.tau
    if args.stream:
        _require_stream_input(args)
        if len(taus) != 1:
            raise InvalidParameterError(
                "--stream joins one threshold at a time; give --tau once"
            )
        return _cmd_join_stream(args, taus[0])
    if args.input is None:
        raise InvalidParameterError("join needs a dataset file (or --stream)")
    # One prepared session serves every requested threshold: the parse,
    # intern, sort and verification caches are shared, and each tau pays
    # its own partitioning at most once.
    collection = _open_session(args)
    options = {}
    if args.method == "partsj":
        options["config"] = PartSJConfig(
            semantics=args.semantics, postorder_filter=args.postorder_filter
        )
    tracer = Tracer() if args.trace else None
    payloads = []
    for tau in taus:
        plan = collection.join(
            tau, method=args.method, workers=args.workers, **options
        )
        if args.explain:
            explain = plan.explain()
            if not args.json:
                print(f"# plan: {json.dumps(explain, sort_keys=True)}")
        result = plan.run(trace=tracer)
        if args.json:
            payload = _join_payload(result, args.workers)
            if args.explain:
                payload["plan"] = explain
            payloads.append(payload)
            continue
        print(result.stats.summary())
        if args.pairs:
            for pair in result.pairs:
                print(f"{pair.i}\t{pair.j}\t{pair.distance}")
    _save_session(collection, args)
    if tracer is not None:
        written = write_jsonl(tracer.finished(), args.trace)
        print(f"# wrote {written} trace spans to {args.trace}",
              file=sys.stderr)
    if args.json:
        # Single-tau invocations keep the historical payload shape; a
        # multi-tau session wraps the per-tau payloads in "queries".
        json.dump(
            payloads[0] if len(payloads) == 1 else {"queries": payloads},
            sys.stdout, indent=2,
        )
        print()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    collection = _open_session(args)
    # All queries run against one prepared session: the first pays the
    # per-tau partitioning, the rest hit the warm index.
    for position, bracket in enumerate(args.query):
        query = Tree.from_bracket(bracket)
        plan = collection.search(query, args.tau)
        if args.explain:
            print(f"# plan: {json.dumps(plan.explain(), sort_keys=True)}")
        if len(args.query) > 1:
            print(f"# query {position}: {bracket}", file=sys.stderr)
        hits = plan.run()
        for hit in hits:
            print(f"{hit.index}\t{hit.distance}")
        print(f"# {len(hits)} trees within tau={args.tau}", file=sys.stderr)
    _save_session(collection, args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        spans = read_jsonl(args.file)
    except OSError as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(format_span_tree(spans))
    except ValueError as exc:  # orphan cycles in a hand-edited file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_ted(args: argparse.Namespace) -> int:
    distance = ted(Tree.from_bracket(args.tree1), Tree.from_bracket(args.tree2))
    print(distance)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    title, _ = EXPERIMENTS[args.id]
    cells = run_experiment(
        args.id, scale=args.scale, progress=progress, workers=args.workers
    )
    kind = "candidates" if args.id in ("fig11", "fig13") else "both"
    print(render_figure(title, cells, kind=kind))
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "join": _cmd_join,
    "search": _cmd_search,
    "trace": _cmd_trace,
    "ted": _cmd_ted,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``... | head -1``) ends the command
    quietly with exit code 1; handlers holding a stream's log have closed
    it on the way out (``with engine``), so it is synced.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        _discard_stdout()
        return 1


def _discard_stdout() -> None:
    """Point stdout at the null device once its reader has gone, so the
    interpreter's flush at exit does not raise again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return  # not a file (a test's capture): nothing flushes at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
