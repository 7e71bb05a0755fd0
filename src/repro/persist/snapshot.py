"""Serializing :class:`~repro.session.TreeCollection` sessions.

What a prepared session owns is already almost flat — bracket strings,
an append-only label table, a size-sorted permutation, and per-tau
subgraphs that are ``(root_number, postorder_id, twig_key, bitmap)``
tuples over each tree's :class:`~repro.core.treecache.TreeCache` — so a
snapshot stores exactly those and *recomputes everything cheap* on
load.  The expensive work a warm load skips is the per-tree gamma
search and greedy partition extraction (the dominant cost of
``prepare``); what it deliberately re-runs is cheap and doubles as
verification:

- labels are re-interned **in stored order**, reproducing the exact id
  assignment, so packed twig keys compare equal across save/load;
- the size-sorted order is recomputed from the trees and compared
  against the stored permutation — a mismatch means the snapshot does
  not describe these trees;
- every subgraph's twig key is recomputed from its restored bitmap and
  compared against the stored key — defense in depth behind the
  container CRCs.

Any inconsistency raises a typed :class:`~repro.errors.PersistenceError`
subclass; ``TreeCollection.from_file`` turns that into a warning plus a
cold rebuild, so a damaged sidecar can never produce a wrong answer.

Section layout (inside the :mod:`repro.persist.container` envelope):

- ``meta``     JSON: tree count, whether trees are embedded, the prepared
  keys in preparation order.
- ``source``   JSON (optional): dataset file name, size and SHA-256 — the
  staleness check for sidecar auto-discovery.
- ``trees``    bracket strings joined by ``\\n`` and split on it alone
  (optional: sidecars saved next to their dataset omit them).  A label
  may hold any other line break; a tree with ``\\n`` in a label is
  refused before anything is written.
- ``interner`` JSON: the label table minus the reserved epsilon.
- ``order``    JSON: the size-sorted permutation (original indices).
- ``prep:N``   one per prepared ``(tau, config)``: a JSON header (config
  fields, gammas, small-tree list, per-tree subgraph counts) followed by
  packed little-endian subgraph records.  No measured time is stored, so
  saving the same state twice writes the same bytes; a restored
  preparation reports the time its own load took as its ``build_time``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import (
    SnapshotFormatError,
    SnapshotIntegrityError,
    StaleSnapshotError,
    TreeFormatError,
)
from repro.obs.trace import NULL_TRACER
from repro.persist.container import read_container, write_container
from repro.tree.bracket import read_bracket
from repro.tree.node import Tree

__all__ = [
    "SNAPSHOT_SUFFIX",
    "sidecar_path",
    "source_fingerprint",
    "save_collection",
    "load_collection",
]

#: Default sidecar name: ``forest.trees`` -> ``forest.trees.repro-idx``.
SNAPSHOT_SUFFIX = ".repro-idx"

# Per-subgraph record: root_number, postorder_id, bitmap length (u32 each)
# then the 63-bit packed twig key (u64); the member bitmap bytes follow.
_SUB = struct.Struct("<IIIQ")


def sidecar_path(dataset_path: str | Path) -> Path:
    """The auto-discovered snapshot path for a dataset file."""
    dataset_path = Path(dataset_path)
    return dataset_path.with_name(dataset_path.name + SNAPSHOT_SUFFIX)


def source_fingerprint(path: str | Path) -> dict:
    """Identity of a dataset file: name, byte count, SHA-256 of the bytes."""
    path = Path(path)
    data = path.read_bytes()
    return {
        "name": path.name,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _json_bytes(payload) -> bytes:
    # Stable bytes (sorted keys, no whitespace churn) so identical state
    # snapshots to identical files.
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _config_fields(config) -> dict:
    """The preparation-keying config fields, as JSON-safe strings."""
    return {
        "semantics": getattr(config.semantics, "value", config.semantics),
        "postorder_filter": getattr(
            config.postorder_filter, "value", config.postorder_filter
        ),
        "partition_strategy": config.partition_strategy,
        "seed": config.seed,
        "postorder_numbering": config.postorder_numbering,
    }


def _encode_prep(prep) -> bytes:
    """One prepared ``(tau, config)``: JSON header + packed subgraphs."""
    order = list(prep.partitions)  # insertion order == sorted order
    header = {
        "tau": prep.tau,
        "config": _config_fields(prep.config),
        "small": prep.small,
        "order": order,
        "gammas": [prep.gammas[i] for i in order],
        "counts": [len(prep.partitions[i]) for i in order],
        "search_index_built": prep._search_index is not None,
    }
    head = _json_bytes(header)
    out = bytearray()
    out += struct.pack("<I", len(head))
    out += head
    for i in order:
        for sub in prep.partitions[i]:
            bits = sub.member_bits
            out += _SUB.pack(
                sub.root_number, sub.postorder_id, len(bits), sub.twig_key
            )
            out += bytes(bits)
    return bytes(out)


def save_collection(
    collection,
    path: str | Path,
    include_trees: bool = True,
    source: Optional[str | Path] = None,
    tracer=None,
) -> Path:
    """Write ``collection`` (trees + every prepared tau) to ``path``.

    ``include_trees=False`` produces a sidecar that only makes sense next
    to its dataset file — pass ``source=`` so loading can verify the
    dataset has not changed since.  ``tracer`` (a
    :class:`repro.obs.Tracer`) records the save as one
    ``snapshot.save`` span.  With trees included, a tree with ``\\n`` in
    a label raises :class:`~repro.errors.TreeFormatError` before anything
    is written.
    """
    from repro import __version__

    tracer = tracer if tracer is not None else NULL_TRACER
    path = Path(path)
    if include_trees:
        texts = [tree.to_bracket() for tree in collection.trees]
        for position, text in enumerate(texts):
            if "\n" in text:
                raise TreeFormatError(
                    f"tree {position} has a '\\n' in a label; a snapshot "
                    "stores one tree per line and cannot hold it"
                )
    prepared = list(collection._prepared.values())
    with tracer.span("snapshot.save", path=str(path),
                     trees=len(collection), preps=len(prepared)):
        meta = {
            "trees": len(collection),
            "include_trees": bool(include_trees),
            "preps": [
                {"tau": prep.tau, "config": _config_fields(prep.config)}
                for prep in prepared
            ],
        }
        sections: list[tuple[str, bytes]] = [("meta", _json_bytes(meta))]
        if source is not None:
            sections.append(("source", _json_bytes(source_fingerprint(source))))
        if include_trees:
            sections.append(("trees", "\n".join(texts).encode("utf-8")))
        sections.append(
            ("interner", _json_bytes(collection.interner._labels[1:]))
        )
        sections.append(("order", _json_bytes(list(collection.sorted.order))))
        for position, prep in enumerate(prepared):
            sections.append((f"prep:{position}", _encode_prep(prep)))
        write_container(path, sections, library_version=__version__)
    return path


def _decode_prep(collection, name: str, payload: bytes, path: Path):
    """Rebuild one ``_PreparedTau`` from its section, verifying twig keys.

    Its ``build_time`` is the time this decode took; a header written
    before that rule may still carry a stored ``build_time``, which is
    ignored."""
    from repro.core.join import PartSJConfig
    from repro.core.subgraph import Subgraph
    from repro.session import _PreparedTau

    started = time.perf_counter()

    if len(payload) < 4:
        raise SnapshotFormatError(
            f"{path}: section {name!r} is too short to hold its header"
        )
    (head_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + head_len > len(payload):
        raise SnapshotFormatError(
            f"{path}: section {name!r} header length {head_len} exceeds "
            "the section"
        )
    try:
        header = json.loads(payload[4:4 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(
            f"{path}: section {name!r} header is not valid JSON ({exc})"
        ) from exc
    tau = header["tau"]
    config = PartSJConfig(**header["config"]).resolved()
    order = header["order"]
    gammas_list = header["gammas"]
    counts = header["counts"]
    if not (len(order) == len(gammas_list) == len(counts)):
        raise SnapshotIntegrityError(
            f"{path}: section {name!r} header arrays disagree in length"
        )
    offset = 4 + head_len
    partitions: dict[int, list] = {}
    gammas: dict[int, int] = {}
    for i, gamma, count in zip(order, gammas_list, counts):
        if not 0 <= i < len(collection):
            raise SnapshotIntegrityError(
                f"{path}: section {name!r} references tree {i}, but the "
                f"collection has {len(collection)} trees"
            )
        cache = collection.cache(i)
        subgraphs = []
        for rank in range(1, count + 1):
            if offset + _SUB.size > len(payload):
                raise SnapshotFormatError(
                    f"{path}: section {name!r} ends inside a subgraph record"
                )
            root_number, postorder_id, bits_len, twig_key = _SUB.unpack_from(
                payload, offset
            )
            offset += _SUB.size
            if offset + bits_len > len(payload):
                raise SnapshotFormatError(
                    f"{path}: section {name!r} ends inside a subgraph bitmap"
                )
            bits = bytearray(payload[offset:offset + bits_len])
            offset += bits_len
            if bits_len != cache.size + 1 or not 1 <= root_number <= cache.size:
                raise SnapshotIntegrityError(
                    f"{path}: section {name!r} subgraph of tree {i} does not "
                    f"fit the tree (bitmap {bits_len} vs {cache.size + 1} "
                    f"slots, root {root_number})"
                )
            sub = Subgraph(i, cache, root_number, bits, rank, postorder_id)
            if sub.twig_key != twig_key:
                # The decisive consistency check: the key recomputed from
                # the restored bitmap and the re-interned labels must be
                # the key the original session indexed under.
                raise SnapshotIntegrityError(
                    f"{path}: section {name!r} tree {i} rank {rank}: "
                    f"reconstructed twig key {sub.twig_key:#x} != stored "
                    f"{twig_key:#x} — snapshot does not match these trees"
                )
            subgraphs.append(sub)
        partitions[i] = subgraphs
        gammas[i] = gamma
    if offset != len(payload):
        raise SnapshotFormatError(
            f"{path}: section {name!r} has {len(payload) - offset} trailing "
            "bytes after the last subgraph"
        )
    prep = _PreparedTau._restore(
        collection, tau, config,
        partitions=partitions, gammas=gammas, small=list(header["small"]),
        build_time=time.perf_counter() - started,
    )
    if header.get("search_index_built"):
        prep.search_index()  # rebuild eagerly: it was warm when saved
    return prep


def load_collection(
    path: str | Path,
    trees: Optional[Sequence[Tree]] = None,
    expected_source: Optional[str | Path] = None,
    tracer=None,
):
    """Rebuild a :class:`~repro.session.TreeCollection` from ``path``.

    ``trees`` supplies the collection when the snapshot was saved
    without them (a sidecar); when given it overrides embedded trees.
    ``expected_source`` (a dataset path) enforces the staleness check:
    the snapshot must carry a matching source fingerprint or
    :class:`StaleSnapshotError` is raised.  ``tracer`` (a
    :class:`repro.obs.Tracer`) records the load as one
    ``snapshot.load`` span.

    Raises the :class:`~repro.errors.PersistenceError` family on any
    damage or mismatch; never returns a partially restored session.
    """
    from repro.session import TreeCollection

    tracer = tracer if tracer is not None else NULL_TRACER
    path = Path(path)
    with tracer.span("snapshot.load", path=str(path)) as _load_span:
        collection = _load_collection_inner(
            path, trees, expected_source, TreeCollection, _load_span
        )
    return collection


def _load_collection_inner(path, trees, expected_source, TreeCollection,
                           load_span):
    library_version, sections = read_container(path)
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
    except KeyError:
        raise SnapshotFormatError(f"{path}: snapshot has no 'meta' section")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(
            f"{path}: 'meta' section is not valid JSON ({exc})"
        ) from exc

    source = None
    if "source" in sections:
        source = json.loads(sections["source"].decode("utf-8"))
    if expected_source is not None:
        if source is None:
            raise StaleSnapshotError(
                f"{path}: snapshot records no source dataset, so it cannot "
                f"vouch for {expected_source}"
            )
        actual = source_fingerprint(expected_source)
        if actual["sha256"] != source.get("sha256"):
            raise StaleSnapshotError(
                f"{path}: source dataset {Path(expected_source).name} has "
                f"changed since this snapshot was saved (sha256 "
                f"{actual['sha256'][:12]}… vs recorded "
                f"{str(source.get('sha256'))[:12]}…)"
            )

    if trees is None:
        if "trees" not in sections:
            raise SnapshotFormatError(
                f"{path}: snapshot was saved without trees "
                "(include_trees=False); pass the collection via trees="
            )
        text = sections["trees"].decode("utf-8")
        trees = [read_bracket(line) for line in text.split("\n") if line]
    else:
        trees = list(trees)
    if len(trees) != meta.get("trees"):
        raise SnapshotIntegrityError(
            f"{path}: snapshot describes {meta.get('trees')} trees, "
            f"got {len(trees)}"
        )

    collection = TreeCollection(trees)

    # Re-intern the stored label table in order: id assignment is
    # first-seen, so replaying the stored order reproduces every id and
    # therefore every packed twig key.
    try:
        labels = json.loads(sections["interner"].decode("utf-8"))
    except KeyError:
        raise SnapshotFormatError(f"{path}: snapshot has no 'interner' section")
    interner = collection.interner
    for label in labels:
        interner.intern(label)

    try:
        order = json.loads(sections["order"].decode("utf-8"))
    except KeyError:
        raise SnapshotFormatError(f"{path}: snapshot has no 'order' section")
    if list(collection.sorted.order) != order:
        raise SnapshotIntegrityError(
            f"{path}: stored size-sorted order does not match these trees — "
            "the snapshot belongs to a different collection"
        )

    restored = []
    for position in range(len(meta.get("preps", []))):
        name = f"prep:{position}"
        if name not in sections:
            raise SnapshotFormatError(
                f"{path}: meta lists {len(meta['preps'])} preparations but "
                f"section {name!r} is missing"
            )
        prep = _decode_prep(collection, name, sections[name], path)
        key = collection._prep_key(prep.tau, prep.config)
        collection._prepared[key] = prep
        restored.append(prep.tau)
    load_span.set("trees", len(trees))
    load_span.set("restored_taus", restored)

    collection._provenance = {
        "path": str(path),
        "library_version": library_version,
        "sections": list(sections),
        "restored_taus": restored,
        "source": source,
        "trees_embedded": "trees" in sections,
    }
    return collection
