"""The reverse node-twig index: probing *backwards in time*, forwards in size.

The join's forward probe answers "which stored *subgraphs* could match
this probing *node*?" — complete for a join because Algorithm 1 feeds
trees in ascending size order, so every potential partner of a prober
is already partitioned and filed.

A streaming join cannot rely on that order: a tree ``T`` may arrive
*after* larger trees it is similar to.  For those pairs Lemma 2 assigns
the roles the other way around — ``T`` (the smaller side) is the
partitioned one, the earlier-ingested larger tree ``U`` is the prober —
but ``U`` already ran its probe phase before ``T`` existed.
:class:`NodeTwigIndex` answers the mirrored question, "which ingested
*nodes* would have probed this *subgraph*?":

- On ingest, every partitioned tree registers each of its nodes under the
  node's at-most-four packed *search keys* (the epsilon-collapsed twig
  variants of :func:`repro.core.intern.search_keys`, the twig part of
  the keys that node probes the forward index with), bucketed by tree
  size and lazily sorted by the node's postorder number in the forward
  index's own :class:`repro.core.index.PostorderBucket`.
- On arrival of ``T``, each subgraph ``s`` of ``T``'s partition looks up
  its own ``twig_key``.  The registered ``(tree, node)`` anchors under
  that key at size ``|U|`` within the postorder window ``|p_node - p_s|
  <= Delta'(s)`` are a superset of the probes that would have hit ``s``
  had ``T`` been indexed before ``U`` probed: the forward index keys on
  the twig *and* the member grandchildren, so it skips the anchors
  whose grandchildren differ.  Those anchors fail the match anyway.
  The caller runs the very same structural match
  (:meth:`repro.core.subgraph.Subgraph.matches_at_number`, with the
  ingested tree's retained :class:`~repro.core.treecache.TreeCache` as
  the prober), so the streamed candidate set for these pairs is equal to
  the batch join's — not merely a superset — under every filter
  configuration, including the strict ``paper`` variants.

Only partitionable trees (size ``>= 2*tau + 1``) register nodes: a
reverse probe targets sizes strictly above the arriving tree's (which is
itself ``>= 2*tau + 1`` when it has subgraphs to probe with), and
small-tree partners are handled by the engine's direct small-pool scan.

Memory: four entries per node per ingested tree, plus the retained tree
caches held by the engine — the price of serving any arrival order from
RAM.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.index import PostorderBucket, PostorderFilter
from repro.core.intern import search_keys
from repro.core.treecache import TreeCache
from repro.params import check_tau

__all__ = ["NodeTwigIndex"]


class NodeTwigIndex:
    """Nodes of ingested trees filed under their packed probe search keys.

    The mirror image of :class:`repro.core.index.InvertedSizeIndex` (see
    the module docstring): ``merged`` maps ``search_key -> {tree_size:
    PostorderBucket}`` of ``(postorder, node_number, owner)`` entries, so
    a subgraph lookup over the ``tau``-wide size band costs one
    dictionary probe per absent key.
    """

    __slots__ = ("tau", "postorder_filter", "merged", "tree_count", "node_count")

    def __init__(self, tau: int, postorder_filter: PostorderFilter | str = "safe"):
        self.tau = check_tau(tau)
        self.postorder_filter = PostorderFilter.coerce(postorder_filter)
        self.merged: dict[int, dict[int, PostorderBucket]] = {}
        self.tree_count = 0
        self.node_count = 0

    def insert_tree(self, cache: TreeCache, owner: int, numbering: str) -> None:
        """Register every node of ``owner``'s tree under its search keys.

        ``cache`` must be the tree's probe-side :class:`TreeCache` (the
        one the engine retains for structural matching) and ``numbering``
        the join's configured postorder numbering, so the registered
        positions agree with the forward probe's.
        """
        n = cache.size
        labels = cache.labels
        left = cache.left
        right = cache.right
        positions = cache.general_post if numbering == "general" else range(n + 1)
        merged = self.merged
        for b in range(1, n + 1):
            # The same epsilon-collapsed key set the forward probe builds
            # (labels[0] is epsilon's id 0, so a missing child reads as 0).
            entry = (positions[b], b, owner)
            for key in search_keys(labels[b], labels[left[b]], labels[right[b]]):
                by_size = merged.get(key)
                if by_size is None:
                    by_size = merged[key] = {}
                bucket = by_size.get(n)
                if bucket is None:
                    bucket = by_size[n] = PostorderBucket()
                bucket.add(entry)
        self.tree_count += 1
        self.node_count += n

    def anchors(
        self,
        twig_key: int,
        postorder_id: int,
        half: int,
        lo_size: int,
        hi_size: int,
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(owner, node_number)`` anchors for one subgraph lookup.

        Anchors are registered nodes of trees with size in ``[lo_size,
        hi_size]`` whose search-key set contains ``twig_key`` and whose
        postorder number lies within ``half`` of ``postorder_id`` (the
        window is skipped entirely when the layer is ``OFF``) — a
        superset of the probes that would have hit this subgraph in a
        batch run, which also match its member grandchildren.
        """
        by_size = self.merged.get(twig_key)
        if by_size is None:
            return
        off = self.postorder_filter is PostorderFilter.OFF
        lo = postorder_id - half
        hi = postorder_id + half
        for size in range(lo_size, hi_size + 1):
            bucket = by_size.get(size)
            if bucket is None:
                continue
            entries = bucket.entries
            if off:
                for _, b, owner in entries:
                    yield owner, b
                continue
            start, stop = bucket.span(lo, hi)
            for k in range(start, stop):
                entry = entries[k]
                yield entry[2], entry[1]
