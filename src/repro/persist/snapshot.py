"""Serializing :class:`~repro.session.TreeCollection` sessions.

What a prepared session owns is already almost flat — bracket strings,
an append-only label table, a size-sorted permutation, one
:class:`~repro.core.treecache.TreeCache` record of parallel integer
arrays per tree, and per-tau subgraphs that are ``(root_number,
postorder_id, twig_key, bitmap)`` tuples over those records — so a
snapshot stores exactly those.  A warm load restores the two expensive
things, each tree's record (tokenizing its text) and each tau's
partitions (the per-tree gamma search and greedy extraction that
dominate ``prepare``), and *recomputes everything cheap*, which doubles
as verification:

- labels are re-interned **in stored order**, reproducing the exact id
  assignment, so restored records and packed twig keys keep their ids;
- the size-sorted order is recomputed from the trees and compared
  against the stored permutation — a mismatch means the snapshot does
  not describe these trees;
- every subgraph's twig key is recomputed from its restored bitmap over
  its tree's record and compared against the stored key.

Two checks bind restored records to the trees.  ``meta`` holds a
SHA-256 over the ``interner`` section and the ``records`` section, each
preceded by its byte count (u64, little-endian), then every tree's
canonical bracket text (UTF-8); the load recomputes it, so records
cannot be restored over other trees or other label ids.  Each record's node count
must equal its tree's, and each array must stay in range (label ids
below the interner's size, node numbers up to the count, every child
numbered below its parent, so every walk over a record ends).

Any inconsistency raises a typed :class:`~repro.errors.PersistenceError`
subclass, and so does a section whose bytes pass their CRC but do not
decode (bad JSON or UTF-8, missing fields, values of the wrong type):
``TreeCollection.from_file`` turns that into a warning plus a cold
rebuild, so a damaged sidecar can never produce a wrong answer.

Section layout (inside the :mod:`repro.persist.container` envelope):

- ``meta``     JSON: tree count, whether trees are embedded, the prepared
  keys in preparation order, and ``records_sha256`` when ``records`` is
  present.
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
- ``records``  (optional) the records the session held, by ascending
  tree index, in the layout of :func:`repro.core.treecache.pack_records`
  (little-endian, the narrowest width that fits).  A save writes only
  records the session already built: building one would intern labels.

Compatibility: the container format stays version 1.  A reader that
predates ``records`` ignores it (and the extra ``meta`` key) and builds
records from text; a snapshot without ``records`` loads here the same
way, each record built from its tree's text on first use.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import struct
import time
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.treecache import pack_records, unpack_records
from repro.errors import (
    SnapshotFormatError,
    SnapshotIntegrityError,
    StaleSnapshotError,
    TreeFormatError,
)
from repro.obs.trace import NULL_TRACER
from repro.params import check_tau
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
_LENGTH = struct.Struct("<Q")


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


def _records_digest(
    interner: bytes, records: Iterable[bytes], texts: Iterable[str]
) -> str:
    """SHA-256 binding the ``records`` payload (in chunks) to the label
    table it indexes and to the trees' canonical texts.

    Each payload is prefixed with its length; canonical texts are
    self-delimiting, so no split of the input is ambiguous."""
    digest = hashlib.sha256(_LENGTH.pack(len(interner)))
    digest.update(interner)
    chunks = list(records)
    digest.update(_LENGTH.pack(sum(map(len, chunks))))
    for chunk in chunks:
        digest.update(chunk)
    for text in texts:
        digest.update(text.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def _encode_prep(prep) -> Iterator[bytes]:
    """One prepared ``(tau, config)``: JSON header + packed subgraphs,
    one chunk per tree."""
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
    yield struct.pack("<I", len(head)) + head
    pack = _SUB.pack
    for i in order:
        yield b"".join([
            part
            for sub in prep.partitions[i]
            for part in (
                pack(sub.root_number, sub.postorder_id,
                     len(sub.member_bits), sub.twig_key),
                sub.member_bits,
            )
        ])


def save_collection(
    collection,
    path: str | Path,
    include_trees: bool = True,
    source: Optional[str | Path] = None,
    tracer=None,
) -> Path:
    """Write ``collection`` (trees, records + every prepared tau) to ``path``.

    ``include_trees=False`` produces a sidecar that only makes sense next
    to its dataset file — pass ``source=`` so loading can verify the
    dataset has not changed since.  ``tracer`` (a
    :class:`repro.obs.Tracer`) records the save as one
    ``snapshot.save`` span.  With trees included, a tree with ``\\n`` in
    a label raises :class:`~repro.errors.TreeFormatError` before anything
    is written.  Sections stream to the file one at a time; only the
    ``records`` payload is held whole, for its digest.
    """
    from repro import __version__

    tracer = tracer if tracer is not None else NULL_TRACER
    path = Path(path)
    held = sorted(collection._records.items())  # never builds one
    texts = None
    if include_trees or held:
        texts = [tree.to_bracket() for tree in collection.trees]
    if include_trees:
        for position, text in enumerate(texts):
            if "\n" in text:
                raise TreeFormatError(
                    f"tree {position} has a '\\n' in a label; a snapshot "
                    "stores one tree per line and cannot hold it"
                )
    prepared = list(collection._prepared.values())
    with tracer.span("snapshot.save", path=str(path),
                     trees=len(collection), preps=len(prepared)):
        interner = _json_bytes(collection.interner._labels[1:])
        meta = {
            "trees": len(collection),
            "include_trees": bool(include_trees),
            "preps": [
                {"tau": prep.tau, "config": _config_fields(prep.config)}
                for prep in prepared
            ],
        }
        records = list(pack_records(held))
        if records:
            meta["records_sha256"] = _records_digest(interner, records, texts)
        sections: list[tuple[str, object]] = [("meta", _json_bytes(meta))]
        if source is not None:
            sections.append(("source", _json_bytes(source_fingerprint(source))))
        if include_trees:
            sections.append(("trees", "\n".join(texts).encode("utf-8")))
        sections.append(("interner", interner))
        sections.append(("order", _json_bytes(list(collection.sorted.order))))
        for position, prep in enumerate(prepared):
            sections.append((f"prep:{position}", _encode_prep(prep)))
        if records:
            sections.append(("records", records))
        write_container(path, sections, library_version=__version__)
    return path


@contextlib.contextmanager
def _decoding(path: Path, name: str):
    """Raise a section's decode failure as a :class:`SnapshotFormatError`.

    Bytes that pass their CRC can still fail to decode (not JSON, not
    UTF-8, a missing field, a value of the wrong type); the typed
    errors of the persistence family pass through unchanged."""
    try:
        yield
    except (ValueError, TypeError, KeyError, IndexError, AttributeError,
            RecursionError, struct.error) as exc:
        raise SnapshotFormatError(
            f"{path}: section {name!r} does not decode "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _json_section(sections, name: str, path: Path, kind: type):
    """Section ``name`` decoded as JSON, checked to be a ``kind``."""
    try:
        payload = sections[name]
    except KeyError:
        raise SnapshotFormatError(
            f"{path}: snapshot has no {name!r} section"
        ) from None
    with _decoding(path, name):
        value = json.loads(str(payload, "utf-8"))
    if not isinstance(value, kind):
        raise SnapshotFormatError(
            f"{path}: section {name!r} holds {type(value).__name__}, "
            f"expected {kind.__name__}"
        )
    return value


def _int_list(values, bound: int, what: str) -> list[int]:
    """``values`` as a list of integers in ``0 .. bound - 1``."""
    values = list(values)
    for value in values:
        if type(value) is not int or not 0 <= value < bound:
            raise SnapshotFormatError(
                f"{what} holds {value!r}, not an integer in 0..{bound - 1}"
            )
    return values


def _decode_prep(collection, name: str, payload, path: Path):
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
    header = json.loads(str(payload[4:4 + head_len], "utf-8"))
    tau = check_tau(header["tau"])
    config = PartSJConfig(**header["config"]).resolved()
    trees = len(collection)
    what = f"{path}: section {name!r} header field"
    order = _int_list(header["order"], trees, f"{what} 'order'")
    small = _int_list(header["small"], trees, f"{what} 'small'")
    gammas_list = _int_list(header["gammas"], 1 << 32, f"{what} 'gammas'")
    counts = _int_list(header["counts"], 1 << 32, f"{what} 'counts'")
    if not (len(order) == len(gammas_list) == len(counts)):
        raise SnapshotIntegrityError(
            f"{path}: section {name!r} header arrays disagree in length"
        )
    offset = 4 + head_len
    partitions: dict[int, list] = {}
    gammas: dict[int, int] = {}
    for i, gamma, count in zip(order, gammas_list, counts):
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
                # the restored bitmap over the tree's record must be the
                # key the original session indexed under.
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
        partitions=partitions, gammas=gammas, small=small,
        build_time=time.perf_counter() - started,
    )
    if header.get("search_index_built"):
        prep.search_index()  # rebuild eagerly: it was warm when saved
    return prep


def _restore_records(collection, sections, meta: dict, path: Path) -> int:
    """Adopt the ``records`` section into the session's record store once
    its digest matches; returns the count adopted."""
    payload = sections["records"]
    trees = collection.trees
    expected = meta.get("records_sha256")
    actual = _records_digest(
        sections["interner"], (payload,), (tree.to_bracket() for tree in trees)
    )
    if actual != expected:
        raise SnapshotIntegrityError(
            f"{path}: section 'records' does not match these trees and "
            f"labels (sha256 {actual[:12]}… vs recorded "
            f"{str(expected)[:12]}…)"
        )
    store = collection._records
    sizes = [tree.size for tree in trees]
    with _decoding(path, "records"):
        for index, record in unpack_records(payload, collection.interner, sizes):
            if index in store:
                raise SnapshotIntegrityError(
                    f"{path}: section 'records' holds tree {index} twice"
                )
            store[index] = record
    return len(store)


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
    meta = _json_section(sections, "meta", path, dict)

    source = None
    if "source" in sections:
        source = _json_section(sections, "source", path, dict)
        if type(source.get("sha256")) is not str:
            raise SnapshotFormatError(
                f"{path}: section 'source' records no dataset digest"
            )
    if expected_source is not None:
        if source is None:
            raise StaleSnapshotError(
                f"{path}: snapshot records no source dataset, so it cannot "
                f"vouch for {expected_source}"
            )
        actual = source_fingerprint(expected_source)
        if actual["sha256"] != source["sha256"]:
            raise StaleSnapshotError(
                f"{path}: source dataset {Path(expected_source).name} has "
                f"changed since this snapshot was saved (sha256 "
                f"{actual['sha256'][:12]}… vs recorded "
                f"{source['sha256'][:12]}…)"
            )

    if trees is None:
        if "trees" not in sections:
            raise SnapshotFormatError(
                f"{path}: snapshot was saved without trees "
                "(include_trees=False); pass the collection via trees="
            )
        with _decoding(path, "trees"):
            text = str(sections["trees"], "utf-8")
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
    # therefore every restored record and packed twig key.
    labels = _json_section(sections, "interner", path, list)
    if not all(type(label) is str for label in labels):
        raise SnapshotFormatError(
            f"{path}: section 'interner' holds a label that is not a string"
        )
    interner = collection.interner
    with _decoding(path, "interner"):  # more labels than ids fit
        for label in labels:
            interner.intern(label)
    if len(interner) != len(labels) + 1:
        raise SnapshotIntegrityError(
            f"{path}: section 'interner' lists a label twice"
        )

    order = _json_section(sections, "order", path, list)
    if list(collection.sorted.order) != order:
        raise SnapshotIntegrityError(
            f"{path}: stored size-sorted order does not match these trees — "
            "the snapshot belongs to a different collection"
        )

    records = 0
    if "records" in sections:
        records = _restore_records(collection, sections, meta, path)

    preps = meta.get("preps", [])
    if not isinstance(preps, list):
        raise SnapshotFormatError(f"{path}: 'meta' lists no preparations")
    restored = []
    for position in range(len(preps)):
        name = f"prep:{position}"
        if name not in sections:
            raise SnapshotFormatError(
                f"{path}: meta lists {len(preps)} preparations but "
                f"section {name!r} is missing"
            )
        with _decoding(path, name):
            prep = _decode_prep(collection, name, sections[name], path)
        key = collection._prep_key(prep.tau, prep.config)
        collection._prepared[key] = prep
        restored.append(prep.tau)
    load_span.set("trees", len(trees))
    load_span.set("restored_taus", restored)
    load_span.set("restored_records", records)

    collection._provenance = {
        "path": str(path),
        "library_version": library_version,
        "sections": list(sections),
        "restored_taus": restored,
        "restored_records": records,
        "source": source,
        "trees_embedded": "trees" in sections,
    }
    return collection
