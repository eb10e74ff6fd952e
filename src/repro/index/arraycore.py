"""The array-native index core: a struct-of-arrays query engine.

Walking a pointer tree's Python object graph node by node dominates
query time once the matching kernels are batched, and maintaining one
under every write costs more than packing a fresh one.  Table 2, the
ablations and the tests therefore rank with an *immutable*
:class:`RTreeArrayCore`: BFS node tables with entry offsets, MBR
lower/upper blocks and leaf oid blocks, written once by :func:`densify`
— an STR pack tiled straight into those tables — or opened as views
over a serialized core's arrays, and never written again.  (The
database keeps no core: its queries rank the engine's centroid column,
and its snapshots carry no index.)  The query hot path runs over
contiguous numpy arrays: the lower-bound distances (MBR mindist) of a
whole node's entry block are one vectorized call, and a flat best-first
loop buffers leaf objects in arrays and emits them in canonical
``(distance, oid)`` order in chunks.

Equivalence guarantees (asserted by the differential tests):

* **Results** are literally equal to the pointer traversals of an
  R*-/X-tree serialized into the same tables: same oids, same
  ``(distance, oid)`` order, bit-identical distances (both use
  :func:`_mindist_many` on the same float inputs).
* **Page accounting** is identical at every consumption point of the
  incremental ranking.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pages import DEFAULT_PAGE_SIZE, PageManager
from repro.obs import counter, histogram

#: The version stamped into a serialized core's meta (:func:`_stamped`).
SNAPSHOT_VERSION = 1

#: The node tables a core runs on, in the order a snapshot stores them.
_TABLES = (
    "node_level",
    "node_capacity",
    "entry_offsets",
    "entry_lowers",
    "entry_uppers",
    "entry_payloads",
)

#: Target node fill of a pack: 0.9 of the capacity, the customary STR
#: fill for a tree that takes inserts later.  A core takes none, and no
#: database layout holds a pack any more, so the fill moves no layout
#: digest; it stays so that the ablation's packs stay what they were.
_FILL = 0.9


def _stamped(meta: dict, kind: str) -> dict:
    """*meta* with a serialized core's format, version and *kind*."""
    meta.update(format="repro-index-snapshot", version=SNAPSHOT_VERSION, kind=kind)
    return meta


def min_fill(capacity: int) -> int:
    """The fewest entries a non-root node of *capacity* may hold: the
    pack, :meth:`RTreeArrayCore.check_invariants` and the pointer
    R*-tree's split all obey this one rule."""
    return max(2, int(0.4 * capacity))


def default_capacity(dimension: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Entries per node when none is given: as many as fit one page at 8
    bytes per coordinate (two box corners plus a pointer per entry), the
    mechanism by which high-dimensional vectors get the small fanouts
    that hurt them in Table 2."""
    return max(4, page_size // (16 * dimension + 8))


def _mindist_many(point: np.ndarray, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """Euclidean distance from *point* to each box (0 inside)."""
    delta = np.maximum(lowers - point, 0.0) + np.maximum(point - uppers, 0.0)
    return np.sqrt(np.sum(delta * delta, axis=1))


class RTreeArrayCore:
    """Struct-of-arrays query core for R*-trees and X-trees.

    Runs on BFS node tables: ``node_level``/``node_capacity`` per node,
    ``entry_offsets`` (N+1 cumulative sums) slicing the flat
    ``entry_lowers``/``entry_uppers``/``entry_payloads`` blocks.
    Payloads are oids in leaf nodes and BFS child indices in directory
    nodes; node 0 is the root.

    Construction checks that *meta* and the tables are well formed —
    integer ``size`` / ``dimension`` / ``capacity``, every table present
    with its shape, offsets splitting the entry table — and raises
    :class:`~repro.exceptions.IndexError_` otherwise;
    :meth:`check_invariants` checks that they form a sound tree.
    """

    def __init__(
        self, meta: dict, arrays: dict, page_manager: PageManager | None = None
    ):
        self.kind = meta.get("kind")
        if self.kind not in ("rstar", "xtree"):
            raise IndexError_(f"unknown index kind {self.kind!r}")
        for key, low in (("size", 0), ("dimension", 1), ("capacity", 1)):
            value = meta.get(key)
            if type(value) is not int or value < low:
                self._fail(f"meta {key!r} holds {value!r}")
        self.meta = {k: v for k, v in meta.items() if k != "checksums"}
        self.arrays = dict(arrays)
        self.pages = page_manager or PageManager()
        self.size = meta["size"]
        self.dimension = meta["dimension"]
        self.capacity = meta["capacity"]
        missing = [name for name in _TABLES if name not in arrays]
        if missing:
            self._fail(f"missing tables {missing}")
        tables = {name: np.asarray(arrays[name]) for name in _TABLES}
        n_nodes = tables["node_level"].size
        n_entries = tables["entry_payloads"].size
        for name, shape in (
            ("node_level", (n_nodes,)),
            ("node_capacity", (n_nodes,)),
            ("entry_offsets", (n_nodes + 1,)),
            ("entry_lowers", (n_entries, self.dimension)),
            ("entry_uppers", (n_entries, self.dimension)),
            ("entry_payloads", (n_entries,)),
        ):
            table = tables[name]
            kinds = "iu" if len(shape) == 1 else "iuf"
            if table.shape != shape or table.dtype.kind not in kinds:
                self._fail(
                    f"table {name!r} is {table.dtype} {table.shape}, expected {shape}"
                )
        if not n_nodes:
            self._fail("no nodes")
        offsets = tables["entry_offsets"]
        if offsets[0] != 0 or offsets[-1] != n_entries or np.any(np.diff(offsets) < 0):
            self._fail("entry offsets do not split the entry table")
        self._levels = np.ascontiguousarray(tables["node_level"], dtype=np.int64)
        self._caps = np.ascontiguousarray(tables["node_capacity"], dtype=np.int64)
        self._offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self._lowers = np.ascontiguousarray(tables["entry_lowers"], dtype=np.float64)
        self._uppers = np.ascontiguousarray(tables["entry_uppers"], dtype=np.float64)
        self._payloads = np.ascontiguousarray(tables["entry_payloads"], dtype=np.int64)
        # One logical page per base capacity's worth of entries, exactly
        # how the pointer trees size supernode pages.
        self._spans = np.maximum(1, -(-self._caps // self.capacity))
        self._node_bytes = self._spans * self.pages.page_size

    def serialized(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The exact ``(meta, arrays)`` snapshot form this core runs on."""
        return self.meta, self.arrays

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

    # -- integrity -------------------------------------------------------

    def _fail(self, message: str) -> None:
        raise IndexError_(f"{self.kind} array core: {message}")

    def check_invariants(self) -> None:
        """Vectorized structural validation of the node tables.

        Covers what the pointer-tree ``check_invariants`` covers, plus
        the flat-layout-specific hazards a corrupted snapshot can carry
        (table shapes and offsets are checked at construction): child
        bounds, single-reference topology, level coherence, fill and
        capacity, and exact MBR containment.
        """
        n_nodes = len(self._levels)
        offsets = self._offsets
        counts = np.diff(offsets)
        if not (np.isfinite(self._lowers).all() and np.isfinite(self._uppers).all()):
            self._fail("non-finite box corner")
        if np.any(self._lowers > self._uppers):
            self._fail("inverted box (lower > upper)")
        if np.any(counts > self._caps):
            self._fail("node holds more entries than its capacity")
        if np.any(self._caps < self.capacity):
            self._fail("node capacity below the tree's base capacity")
        if n_nodes > 1 and np.any(counts[1:] < min_fill(self.capacity)):
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


# -- the pack ----------------------------------------------------------------


def _tile(points: np.ndarray, order: np.ndarray, capacity: int, axis: int) -> list[np.ndarray]:
    """Sort-Tile-Recursive (Leutenegger et al. 1997): recursively tile
    *order* (indices into points) into runs of at most *capacity*,
    slicing along *axis* first.

    Runs are near-equal parts, never a full-size prefix plus a
    remainder: ``len`` entries in ``ceil(len / capacity)`` runs leave
    every run at least ``ceil(capacity / 2)`` long, so no packed node is
    underfull.  A slab is a near-equal share of those runs (whole runs,
    not a share of the entries), so tiling the remaining axes adds no
    runs beyond ``ceil(len / capacity)``."""
    if len(order) <= capacity:
        return [order]
    n_leaves = -(-len(order) // capacity)
    remaining = points.shape[1] - axis
    ranked = order[np.argsort(points[order, axis], kind="stable")]
    if remaining == 1:
        return np.array_split(ranked, n_leaves)
    sizes = np.full(n_leaves, len(order) // n_leaves)
    sizes[: len(order) % n_leaves] += 1
    edges = np.concatenate(([0], np.cumsum(sizes)))
    # Number of slabs along this axis: ceil(n_leaves^(1/remaining_dims)).
    slabs = int(np.ceil(n_leaves ** (1.0 / remaining)))
    groups: list[np.ndarray] = []
    for runs in np.array_split(np.arange(n_leaves), slabs):
        slab = ranked[edges[runs[0]] : edges[runs[-1] + 1]]
        groups.extend(_tile(points, slab, capacity, axis + 1))
    return groups


def densify(
    points: np.ndarray, oids: np.ndarray, capacity: int | None = None
) -> RTreeArrayCore:
    """An STR pack of the ``(n, d)`` *points* (object ids *oids*) as a
    fresh array core: the static X-tree of the paper's filter step.

    Built bottom-up: the leaves are :func:`_tile` runs of at most 0.9 of
    *capacity* points, and each directory level tiles the centres of the
    level below's MBRs the same way, until one node is left.  The nodes
    are then numbered top-down in BFS order, a directory node's children
    being its entry block in entry order.  The tables and ``meta`` are
    those of an X-tree built that way and serialized node by node
    (capacity by default :func:`default_capacity`, no supernodes).
    """
    points = np.asarray(points, dtype=np.float64)
    oids = np.asarray(oids, dtype=np.int64)
    if points.ndim != 2 or not points.size:
        raise IndexError_("densify needs a non-empty (n, d) array")
    if oids.shape != (len(points),):
        raise IndexError_("need one oid per point")
    n, dimension = points.shape
    if capacity is None:
        capacity = default_capacity(dimension)
    if capacity < 4:
        raise IndexError_("node capacity must be >= 4")
    per_node = max(min_fill(capacity), int(capacity * _FILL))

    # Bottom-up: each level's entries grouped into its nodes, the nodes
    # numbered in tiling order (a directory entry's payload is the
    # tiling number of its child one level down).
    levels = []
    lowers = uppers = centres = points
    payloads = oids
    while True:
        groups = _tile(centres, np.arange(len(centres)), per_node, axis=0)
        order = np.concatenate(groups)
        sizes = np.array([len(group) for group in groups], dtype=np.int64)
        lowers, uppers, payloads = lowers[order], uppers[order], payloads[order]
        levels.append((lowers, uppers, payloads, sizes))
        if len(groups) == 1:
            break
        starts = np.cumsum(sizes) - sizes
        lowers = np.minimum.reduceat(lowers, starts, axis=0)
        uppers = np.maximum.reduceat(uppers, starts, axis=0)
        payloads = np.arange(len(groups), dtype=np.int64)
        centres = (lowers + uppers) / 2.0

    # Top-down: one level's nodes in BFS order are the entries of the
    # level above in BFS order, so a directory entry's child is the next
    # BFS number.  rank[i] is the BFS position of tiling node i.
    rank = np.zeros(1, dtype=np.int64)
    first_child = 1
    node_level, node_size, blocks = [], [], []
    for height in range(len(levels) - 1, -1, -1):
        lowers, uppers, payloads, sizes = levels[height]
        by_rank = np.argsort(np.repeat(rank, sizes), kind="stable")
        node_level.append(np.full(len(sizes), height, dtype=np.int64))
        node_size.append(sizes[np.argsort(rank)])
        payloads = payloads[by_rank]
        if height:
            rank = np.empty(len(payloads), dtype=np.int64)
            rank[payloads] = np.arange(len(payloads))
            payloads = np.arange(first_child, first_child + len(payloads))
            first_child += len(payloads)
        blocks.append((lowers[by_rank], uppers[by_rank], payloads))

    offsets = np.zeros(first_child + 1, dtype=np.int64)
    np.cumsum(np.concatenate(node_size), out=offsets[1:])
    meta = {
        "dimension": dimension,
        "capacity": capacity,
        "reinsert_count": int(0.3 * capacity),
        "size": n,
        "max_overlap": 0.2,
        "max_supernode_factor": 64,
        "supernodes_created": 0,
        "supernodes_dissolved": 0,
    }
    arrays = {
        "node_level": np.concatenate(node_level),
        "node_capacity": np.full(first_child, capacity, dtype=np.int64),
        "entry_offsets": offsets,
        "entry_lowers": np.concatenate([block[0] for block in blocks]),
        "entry_uppers": np.concatenate([block[1] for block in blocks]),
        "entry_payloads": np.concatenate([block[2] for block in blocks]),
    }
    return RTreeArrayCore(_stamped(meta, "xtree"), arrays)
