"""The array-native index core: a struct-of-arrays query engine.

Walking a pointer tree's Python object graph node by node dominates
query time once the matching kernels are batched, and maintaining one
under every write costs more than packing a fresh one.  The database
therefore ranks with an *immutable* :class:`RTreeArrayCore`: the flat
layout of :func:`repro.index.snapshot.serialize_index` — BFS node
tables with entry offsets, MBR lower/upper blocks, leaf oid blocks —
built once by :func:`densify` of an STR-packed X-tree (or opened as
views over a snapshot's arrays) and never written again.  The query hot
path runs over contiguous numpy arrays:

* lower-bound distances (MBR mindist) are computed for a whole node's
  entry block in one vectorized call,
* k-nn uses a flat best-first loop that buffers leaf objects in arrays
  and emits them in canonical ``(distance, oid)`` order in chunks,
* range search walks a frontier *array* of node ids per level.

Equivalence guarantees (asserted by the differential tests):

* **Results** are literally equal to the pointer traversals of the
  tree a core was densified from: same oids, same ``(distance, oid)``
  order, bit-identical distances (the core reuses ``_mindist_many`` on
  the same float inputs).
* **Page accounting** is identical at every consumption point of the
  incremental ranking.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pages import PageManager
from repro.index.rstar import _mindist_many
from repro.index.snapshot import serialize_index
from repro.obs import counter, histogram


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], ends[i])`` without a Python loop."""
    counts = ends - starts
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts) - counts
    return np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)


class RTreeArrayCore:
    """Struct-of-arrays query core for R*-trees and X-trees.

    Runs on the BFS node tables of :func:`repro.index.snapshot.serialize_index`:
    ``node_level``/``node_capacity`` per node, ``entry_offsets`` (N+1
    cumulative sums) slicing the flat ``entry_lowers``/``entry_uppers``/
    ``entry_payloads`` blocks.  Payloads are oids in leaf nodes and BFS
    child indices in directory nodes; node 0 is the root.
    """

    def __init__(
        self, meta: dict, arrays: dict, page_manager: PageManager | None = None
    ):
        self.meta = {k: v for k, v in meta.items() if k != "checksums"}
        self.arrays = dict(arrays)
        self.pages = page_manager or PageManager()
        self.size = int(meta["size"])
        self.kind = meta["kind"]
        self.dimension = int(meta["dimension"])
        self.capacity = int(meta["capacity"])
        self._levels = np.ascontiguousarray(arrays["node_level"], dtype=np.int64)
        self._caps = np.ascontiguousarray(arrays["node_capacity"], dtype=np.int64)
        self._offsets = np.ascontiguousarray(arrays["entry_offsets"], dtype=np.int64)
        self._lowers = np.ascontiguousarray(arrays["entry_lowers"], dtype=np.float64)
        self._uppers = np.ascontiguousarray(arrays["entry_uppers"], dtype=np.float64)
        self._payloads = np.ascontiguousarray(arrays["entry_payloads"], dtype=np.int64)
        # One logical page per base capacity's worth of entries, exactly
        # how the pointer trees size supernode pages.
        self._spans = np.maximum(1, -(-self._caps // self.capacity))
        self._node_bytes = self._spans * self.pages.page_size
        # Per-entry flag: does this entry's owning node sit at leaf level
        # (payload is an object id) or above (payload is a child node)?
        self._entry_is_obj = np.repeat(self._levels == 0, np.diff(self._offsets))

    def serialized(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The exact ``(meta, arrays)`` snapshot form this core runs on."""
        return self.meta, self.arrays

    def leaf_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(oids, lowers, uppers)`` of the leaf entries, in table order."""
        leaf = self._entry_is_obj
        return self._payloads[leaf], self._lowers[leaf], self._uppers[leaf]

    # -- queries ---------------------------------------------------------

    def ranking_chunks(
        self, point: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(oids, distances)`` array chunks in ascending canonical
        ``(distance, oid)`` order.

        A buffered best-first traversal: the node priority array is a
        heap of ``(mindist, node_id)``; leaf entry blocks are appended to
        flat object buffers; a chunk is emitted once every unexpanded
        node lies strictly farther than the buffered objects (so a tied
        node is always expanded before a tied object is yielded —
        canonical order is preserved).  Expansions happen exactly when
        the one-at-a-time heap would pop the node, so page accounting
        matches the pointer traversal at every consumption point.
        """
        point = np.asarray(point, dtype=np.float64)
        offsets, levels = self._offsets, self._levels
        lowers, uppers, payloads = self._lowers, self._uppers, self._payloads
        spans, node_bytes = self._spans, self._node_bytes
        pages = self.pages
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        heap: list[tuple[float, int]] = [(0.0, 0)]
        parts_d: list[np.ndarray] = []
        parts_o: list[np.ndarray] = []
        buf_min = np.inf
        while heap or parts_d:
            while heap and (not parts_d or heap[0][0] <= buf_min):
                dist, nid = heapq.heappop(heap)
                pages.read_spans(int(spans[nid]), int(node_bytes[nid]))
                nodes_batched.inc()
                frontier_size.observe(len(heap) + 1)
                start, stop = int(offsets[nid]), int(offsets[nid + 1])
                if start == stop:
                    continue
                dists = _mindist_many(point, lowers[start:stop], uppers[start:stop])
                if levels[nid] == 0:
                    parts_d.append(dists)
                    parts_o.append(payloads[start:stop])
                    near = float(dists.min())
                    if near < buf_min:
                        buf_min = near
                else:
                    block = payloads[start:stop]
                    for j in range(stop - start):
                        heapq.heappush(heap, (float(dists[j]), int(block[j])))
            if not parts_d:
                break
            buffered_d = parts_d[0] if len(parts_d) == 1 else np.concatenate(parts_d)
            buffered_o = parts_o[0] if len(parts_o) == 1 else np.concatenate(parts_o)
            if heap:
                ready = buffered_d < heap[0][0]
                emit_d, emit_o = buffered_d[ready], buffered_o[ready]
                held = ~ready
                parts_d = [buffered_d[held]] if held.any() else []
                parts_o = [buffered_o[held]] if held.any() else []
                buf_min = float(parts_d[0].min()) if parts_d else np.inf
            else:
                emit_d, emit_o = buffered_d, buffered_o
                parts_d, parts_o = [], []
                buf_min = np.inf
            order = np.lexsort((emit_o, emit_d))
            yield emit_o[order], emit_d[order]

    def incremental_nearest(self, point: np.ndarray) -> Iterator[tuple[int, float]]:
        """``(oid, distance)`` pairs in ascending ``(distance, oid)`` order."""
        for oids, dists in self.ranking_chunks(point):
            for oid, dist in zip(oids.tolist(), dists.tolist()):
                yield oid, dist

    def knn(self, point: np.ndarray, k: int) -> list[tuple[int, float]]:
        if k < 1:
            raise IndexError_("k must be >= 1")
        result: list[tuple[int, float]] = []
        for oids, dists in self.ranking_chunks(point):
            take = min(k - len(result), len(oids))
            result.extend(zip(oids[:take].tolist(), dists[:take].tolist()))
            if len(result) == k:
                break
        return result

    def range_search(self, center: np.ndarray, radius: float) -> list[int]:
        """Object ids intersecting the hypersphere, ascending.

        The frontier is an array of node ids per tree level; each step
        charges the whole frontier as one batched read and filters every
        frontier entry with a single vectorized mindist call.  The
        visited node set — hence ``io.page_accesses`` — is identical to
        the pointer tree's depth-first walk.
        """
        center = np.asarray(center, dtype=np.float64)
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        offsets, levels, payloads = self._offsets, self._levels, self._payloads
        nodes_batched = counter("index.nodes_batched")
        frontier_size = histogram("index.frontier_size")
        hits: list[np.ndarray] = []
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            self.pages.read_spans(
                int(self._spans[frontier].sum()),
                int(self._node_bytes[frontier].sum()),
            )
            nodes_batched.inc(frontier.size)
            frontier_size.observe(frontier.size)
            starts, ends = offsets[frontier], offsets[frontier + 1]
            entry_idx = _ranges(starts, ends)
            if not entry_idx.size:
                break
            dists = _mindist_many(
                center, self._lowers[entry_idx], self._uppers[entry_idx]
            )
            within = dists <= radius
            near = entry_idx[within]
            owner_is_leaf = np.repeat(levels[frontier] == 0, ends - starts)
            near_is_leaf = owner_is_leaf[within]
            hit_oids = payloads[near[near_is_leaf]]
            if hit_oids.size:
                hits.append(hit_oids)
            frontier = payloads[near[~near_is_leaf]]
        if not hits:
            return []
        return np.sort(np.concatenate(hits)).tolist()

    # -- integrity -------------------------------------------------------

    def _fail(self, message: str) -> None:
        raise IndexError_(f"{self.kind} array core: {message}")

    def check_invariants(self) -> None:
        """Vectorized structural validation of the dense node tables.

        Covers what the pointer-tree ``check_invariants`` covers, plus
        the flat-layout-specific hazards a corrupted snapshot can carry:
        child-offset bounds, single-reference topology, offset
        monotonicity, and exact MBR containment.
        """
        n_nodes = len(self._levels)
        offsets = self._offsets
        if len(offsets) != n_nodes + 1 or len(self._caps) != n_nodes:
            self._fail("node table lengths disagree")
        if not n_nodes:
            self._fail("no nodes")
        if offsets[0] != 0 or offsets[-1] != len(self._payloads):
            self._fail("entry offsets do not span the entry table")
        counts = np.diff(offsets)
        if np.any(counts < 0):
            self._fail("entry offsets are not monotone")
        if len(self._lowers) != len(self._payloads) or len(self._uppers) != len(
            self._payloads
        ):
            self._fail("entry table lengths disagree")
        if not (np.isfinite(self._lowers).all() and np.isfinite(self._uppers).all()):
            self._fail("non-finite box corner")
        if np.any(self._lowers > self._uppers):
            self._fail("inverted box (lower > upper)")
        if np.any(counts > self._caps):
            self._fail("node holds more entries than its capacity")
        if np.any(self._caps < self.capacity):
            self._fail("node capacity below the tree's base capacity")
        min_fill = max(2, int(0.4 * self.capacity))
        if n_nodes > 1 and np.any(counts[1:] < min_fill):
            self._fail("underfull non-root node")
        owner = np.repeat(np.arange(n_nodes, dtype=np.int64), counts)
        is_dir_entry = self._levels[owner] > 0
        children = self._payloads[is_dir_entry]
        if int((~is_dir_entry).sum()) != self.size:
            self._fail(
                f"leaf entry count {(~is_dir_entry).sum()} != size {self.size}"
            )
        if children.size:
            if children.min() < 1 or children.max() >= n_nodes:
                self._fail("child offset out of bounds")
            refs = np.bincount(children, minlength=n_nodes)
            if refs[0] != 0 or np.any(refs[1:] != 1):
                self._fail("node referenced other than exactly once")
            if np.any(self._levels[children] != self._levels[owner[is_dir_entry]] - 1):
                self._fail("child level mismatch")
        elif n_nodes > 1:
            self._fail("unreachable nodes (no directory entries)")
        nonempty = np.nonzero(counts > 0)[0]
        if nonempty.size:
            node_lo = np.full((n_nodes, self.dimension), np.inf)
            node_hi = np.full((n_nodes, self.dimension), -np.inf)
            node_lo[nonempty] = np.minimum.reduceat(
                self._lowers, offsets[:-1][nonempty], axis=0
            )
            node_hi[nonempty] = np.maximum.reduceat(
                self._uppers, offsets[:-1][nonempty], axis=0
            )
            if children.size:
                boxes_lo = self._lowers[is_dir_entry]
                boxes_hi = self._uppers[is_dir_entry]
                if np.any(node_lo[children] < boxes_lo) or np.any(
                    node_hi[children] > boxes_hi
                ):
                    self._fail("child MBR escapes the stored directory box")


def core_from_serialized(
    meta: dict, arrays: dict, *, page_manager: PageManager | None = None
) -> RTreeArrayCore:
    """The array core over a snapshot's R*-/X-tree ``(meta, arrays)``."""
    kind = meta.get("kind")
    if kind not in ("rstar", "xtree"):
        raise IndexError_(f"unknown index kind {kind!r}")
    return RTreeArrayCore(meta, arrays, page_manager)


def densify(tree) -> RTreeArrayCore:
    """Flatten a pointer *tree* into a fresh array core sharing its page
    manager."""
    meta, arrays = serialize_index(tree)
    return RTreeArrayCore(meta, arrays, page_manager=tree.pages)
