"""R*-tree: the spatial index substrate of the filter step.

A faithful in-memory R*-tree (Beckmann et al. 1990) with

* ChooseSubtree by minimum overlap enlargement at the leaf level and
  minimum area enlargement above it,
* the R* split (axis by minimum margin sum, distribution by minimum
  overlap, ties by area), computed with vectorized prefix bounding
  boxes,
* forced reinsertion of the 30 % most-distant entries on first overflow
  per level,
* best-first (Hjaltason & Samet) incremental nearest-neighbor ranking
  and hypersphere range search,
* logical page accounting through :class:`~repro.index.pages.PageManager`
  so queries can be costed with the paper's I/O model.

:class:`~repro.index.xtree.XTree` derives from this class and replaces
the overflow handling with supernode creation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

import numpy as np

from repro.exceptions import IndexError_
from repro.index.arraycore import _mindist_many, default_capacity, min_fill
from repro.index.pages import PageManager


class _Node:
    """One tree node; occupies one logical page (supernodes: several).

    Entry ``i`` is the box ``lowers[i]..uppers[i]`` with payload
    ``children[i]`` (a child node) or ``oids[i]`` (an object id).
    """

    __slots__ = ("level", "lowers", "uppers", "children", "oids", "page_id",
                 "capacity", "parent")

    def __init__(self, level: int, dimension: int, capacity: int, page_id: int):
        self.level = level  # 0 = leaf
        self.lowers = np.empty((0, dimension))
        self.uppers = np.empty((0, dimension))
        self.children: list["_Node"] = []
        self.oids: list[int] = []
        self.page_id = page_id
        self.capacity = capacity
        self.parent: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def size(self) -> int:
        return len(self.lowers)

    def mbr(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lowers.min(axis=0), self.uppers.max(axis=0)

    def add(self, lower: np.ndarray, upper: np.ndarray, payload) -> None:
        self.lowers = np.vstack([self.lowers, lower[np.newaxis]])
        self.uppers = np.vstack([self.uppers, upper[np.newaxis]])
        if self.is_leaf:
            self.oids.append(payload)
        else:
            payload.parent = self
            self.children.append(payload)

    def payloads(self) -> list:
        return self.oids if self.is_leaf else self.children

    def set_entries(self, lowers: np.ndarray, uppers: np.ndarray, payloads: list) -> None:
        self.lowers = lowers
        self.uppers = uppers
        if self.is_leaf:
            self.oids = list(payloads)
            self.children = []
        else:
            self.children = list(payloads)
            self.oids = []
            for child in self.children:
                child.parent = self


def _areas(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    return np.prod(uppers - lowers, axis=-1)


def _margins(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    return np.sum(uppers - lowers, axis=-1)


def _overlap(lo_a, hi_a, lo_b, hi_b) -> float:
    inter = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    if np.any(inter <= 0):
        return 0.0
    return float(np.prod(inter))


class RStarTree:
    """In-memory R*-tree over d-dimensional points or boxes.

    Parameters
    ----------
    dimension:
        Dimensionality of the indexed space.
    page_manager:
        Shared :class:`PageManager` for I/O accounting (a private one is
        created if omitted).
    capacity:
        Maximum entries per node.  When omitted it is derived from the
        page size assuming 8-byte coordinates (two box corners plus a
        pointer per entry) — the mechanism by which high-dimensional
        feature vectors get the small fanouts that hurt them in Table 2.
    reinsert_fraction:
        Fraction of entries re-inserted on first overflow (R* default
        0.3); 0 disables forced reinsertion.
    """

    def __init__(
        self,
        dimension: int,
        page_manager: PageManager | None = None,
        capacity: int | None = None,
        reinsert_fraction: float = 0.3,
    ):
        if dimension < 1:
            raise IndexError_("dimension must be >= 1")
        self.dimension = dimension
        self.pages = page_manager or PageManager()
        if capacity is None:
            capacity = default_capacity(dimension, self.pages.page_size)
        if capacity < 4:
            raise IndexError_("node capacity must be >= 4")
        self.capacity = capacity
        self.min_fill = min_fill(capacity)
        if not 0.0 <= reinsert_fraction < 1.0:
            raise IndexError_("reinsert fraction must be in [0, 1)")
        self.reinsert_count = int(reinsert_fraction * capacity)
        self.root = self._new_node(level=0)
        self.size = 0

    # -- construction ------------------------------------------------------

    def _new_node(self, level: int) -> _Node:
        page_id = self.pages.allocate(self.pages.page_size)
        return _Node(level, self.dimension, self.capacity, page_id)

    def insert(self, point: np.ndarray, oid: int) -> None:
        """Insert a point entry with object id *oid*."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise IndexError_(f"expected a {self.dimension}-d point, got {point.shape}")
        self._insert_entry(point.copy(), point.copy(), oid, level=0, overflown=set())
        self.size += 1

    def insert_box(self, lower: np.ndarray, upper: np.ndarray, oid: int) -> None:
        """Insert a box entry (used when indexing MBR-shaped payloads)."""
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise IndexError_("box corners have wrong dimension")
        if np.any(lower > upper):
            raise IndexError_("box lower corner must not exceed upper corner")
        self._insert_entry(lower.copy(), upper.copy(), oid, level=0, overflown=set())
        self.size += 1

    def _choose_subtree(self, node: _Node, lower, upper, level: int) -> _Node:
        """Pick the child of *node* to descend into."""
        enlarged_lo = np.minimum(node.lowers, lower)
        enlarged_hi = np.maximum(node.uppers, upper)
        areas = _areas(node.lowers, node.uppers)
        enlargement = _areas(enlarged_lo, enlarged_hi) - areas
        if node.level == 1 and level == 0:
            # Leaf-level children: minimize overlap enlargement.  For
            # candidate i, overlap against all siblings is vectorized.
            n = node.size
            overlap_delta = np.empty(n)
            for i in range(n):
                others = np.arange(n) != i
                inter_before = np.minimum(node.uppers[i], node.uppers[others]) - np.maximum(
                    node.lowers[i], node.lowers[others]
                )
                inter_after = np.minimum(enlarged_hi[i], node.uppers[others]) - np.maximum(
                    enlarged_lo[i], node.lowers[others]
                )
                before = np.prod(np.clip(inter_before, 0.0, None), axis=1).sum()
                after = np.prod(np.clip(inter_after, 0.0, None), axis=1).sum()
                overlap_delta[i] = after - before
            best = int(np.lexsort((areas, enlargement, overlap_delta))[0])
            return node.children[best]
        # Directory levels: minimize area enlargement, ties by area.
        return node.children[int(np.lexsort((areas, enlargement))[0])]

    def _insert_entry(self, lower, upper, payload, level: int, overflown: set[int]) -> None:
        node = self.root
        while node.level > level:
            node = self._choose_subtree(node, lower, upper, level)
        node.add(lower, upper, payload)
        self._refresh_upward(node)
        if node.size > node.capacity:
            self._overflow(node, overflown)

    def _refresh_upward(self, node: _Node) -> None:
        """Recompute the MBR stored for *node* (and ancestors) in its parent."""
        while node.parent is not None:
            parent = node.parent
            slot = parent.children.index(node)
            lo, hi = node.mbr()
            if np.array_equal(parent.lowers[slot], lo) and np.array_equal(
                parent.uppers[slot], hi
            ):
                break  # no change can propagate further
            parent.lowers[slot] = lo
            parent.uppers[slot] = hi
            node = parent

    def _overflow(self, node: _Node, overflown: set[int]) -> None:
        if self.reinsert_count and node.parent is not None and node.level not in overflown:
            overflown.add(node.level)
            self._reinsert(node, overflown)
        else:
            self._split(node, overflown)

    def _reinsert(self, node: _Node, overflown: set[int]) -> None:
        lo, hi = node.mbr()
        center = (lo + hi) / 2.0
        entry_centers = (node.lowers + node.uppers) / 2.0
        distance = np.linalg.norm(entry_centers - center, axis=1)
        order = np.argsort(distance, kind="stable")  # near entries stay
        keep = order[: node.size - self.reinsert_count]
        expel = order[node.size - self.reinsert_count :]
        lowers, uppers, payloads = node.lowers, node.uppers, node.payloads()
        expelled = [(lowers[i].copy(), uppers[i].copy(), payloads[i]) for i in expel]
        node.set_entries(lowers[keep], uppers[keep], [payloads[i] for i in keep])
        self._refresh_upward(node)
        level = node.level
        for entry_lo, entry_hi, payload in expelled:
            self._insert_entry(entry_lo, entry_hi, payload, level, overflown)

    def _choose_split(
        self, lowers: np.ndarray, uppers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """R* split: returns (left index array, right index array).

        For each axis and sort key the prefix/suffix bounding boxes give
        every candidate distribution's margin, overlap and area in a few
        vectorized passes.
        """
        total = len(lowers)
        splits = np.arange(self.min_fill, total - self.min_fill + 1)

        def distributions(axis: int, by_upper: bool):
            key = uppers[:, axis] if by_upper else lowers[:, axis]
            order = np.argsort(key, kind="stable")
            slo, shi = lowers[order], uppers[order]
            pre_lo = np.minimum.accumulate(slo, axis=0)
            pre_hi = np.maximum.accumulate(shi, axis=0)
            suf_lo = np.minimum.accumulate(slo[::-1], axis=0)[::-1]
            suf_hi = np.maximum.accumulate(shi[::-1], axis=0)[::-1]
            left_lo, left_hi = pre_lo[splits - 1], pre_hi[splits - 1]
            right_lo, right_hi = suf_lo[splits], suf_hi[splits]
            return order, left_lo, left_hi, right_lo, right_hi

        # Phase 1: choose the split axis by minimum total margin.
        best_axis, best_margin = 0, np.inf
        for axis in range(self.dimension):
            margin = 0.0
            for by_upper in (False, True):
                _, l_lo, l_hi, r_lo, r_hi = distributions(axis, by_upper)
                margin += float(
                    (_margins(l_lo, l_hi) + _margins(r_lo, r_hi)).sum()
                )
            if margin < best_margin:
                best_margin, best_axis = margin, axis

        # Phase 2: on that axis, choose the distribution with minimum
        # overlap (ties: minimum combined area).
        best_key, best_result = None, None
        for by_upper in (False, True):
            order, l_lo, l_hi, r_lo, r_hi = distributions(best_axis, by_upper)
            inter = np.clip(np.minimum(l_hi, r_hi) - np.maximum(l_lo, r_lo), 0.0, None)
            overlaps = np.prod(inter, axis=1)
            area = _areas(l_lo, l_hi) + _areas(r_lo, r_hi)
            pick = int(np.lexsort((area, overlaps))[0])
            key = (float(overlaps[pick]), float(area[pick]))
            if best_key is None or key < best_key:
                split_at = int(splits[pick])
                best_key = key
                best_result = (order[:split_at].copy(), order[split_at:].copy())
        assert best_result is not None
        return best_result

    def _split(self, node: _Node, overflown: set[int]) -> _Node:
        """Split *node*; returns the newly created sibling (the X-tree
        uses it to right-size supernode capacities after the split)."""
        lowers, uppers = node.lowers, node.uppers
        payloads = node.payloads()
        left_idx, right_idx = self._choose_split(lowers, uppers)

        sibling = self._new_node(node.level)
        node.set_entries(lowers[left_idx], uppers[left_idx], [payloads[i] for i in left_idx])
        sibling.set_entries(
            lowers[right_idx], uppers[right_idx], [payloads[i] for i in right_idx]
        )

        parent = node.parent
        if parent is not None:
            self._refresh_upward(node)
            lo, hi = sibling.mbr()
            parent.add(lo, hi, sibling)
            self._refresh_upward(parent)
            if parent.size > parent.capacity:
                self._overflow(parent, overflown)
        else:
            new_root = self._new_node(node.level + 1)
            for child in (node, sibling):
                lo, hi = child.mbr()
                new_root.add(lo, hi, child)
            self.root = new_root
        return sibling

    # -- queries -------------------------------------------------------------

    def range_search(self, center: np.ndarray, radius: float) -> list[int]:
        """Object ids whose entry intersects the hypersphere
        ``||x - center|| <= radius``.  Every visited node counts as a
        page access."""
        center = np.asarray(center, dtype=float)
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        hits: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.pages.read(node.page_id)
            if not node.size:
                continue
            near = np.nonzero(_mindist_many(center, node.lowers, node.uppers) <= radius)[0]
            if node.is_leaf:
                hits.extend(node.oids[i] for i in near)
            else:
                stack.extend(node.children[i] for i in near)
        return hits

    def incremental_nearest(self, point: np.ndarray) -> Iterator[tuple[int, float]]:
        """Yield ``(oid, distance)`` in ascending ``(distance, oid)`` order.

        Nodes are fetched (and costed) lazily as the ranking progresses,
        which is what makes the optimal multi-step k-nn of
        :mod:`repro.core.queries` touch as few pages as possible.

        Ties are broken canonically: at equal distance every node whose
        minimum distance matches is expanded before any object is
        yielded, and tied objects come out in ascending object id.  All
        access methods (R*-tree, X-tree, sequential scan) share
        this convention, so their result sets are bit-identical even in
        the presence of duplicate points — the property the stateful
        differential tests assert.
        """
        point = np.asarray(point, dtype=float)
        counter = itertools.count()  # unique-ifies entries with equal keys
        # Heap key: (distance, is_object, oid-or-0, counter).  Nodes sort
        # before objects at the same distance, so a tied object cannot be
        # yielded while an unexpanded node might still contain a smaller
        # oid at that distance.
        heap: list[tuple[float, int, int, int, object]] = [
            (0.0, 0, 0, next(counter), self.root)
        ]
        while heap:
            dist, is_object, oid, _, payload = heapq.heappop(heap)
            if is_object:
                yield oid, dist
                continue
            node: _Node = payload
            self.pages.read(node.page_id)
            if not node.size:
                continue
            dists = _mindist_many(point, node.lowers, node.uppers)
            if node.is_leaf:
                for i in range(node.size):
                    heapq.heappush(
                        heap,
                        (float(dists[i]), 1, node.oids[i], next(counter), None),
                    )
            else:
                for i in range(node.size):
                    heapq.heappush(
                        heap,
                        (float(dists[i]), 0, 0, next(counter), node.children[i]),
                    )

    def knn(self, point: np.ndarray, k: int) -> list[tuple[int, float]]:
        """The k nearest object ids with their distances."""
        if k < 1:
            raise IndexError_("k must be >= 1")
        ranking = self.incremental_nearest(point)
        return list(itertools.islice(ranking, k))

    # -- introspection ---------------------------------------------------------

    def node_count(self) -> int:
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def height(self) -> int:
        return self.root.level + 1

    def _check_node_capacity(self, node: _Node) -> None:
        """Per-node capacity rule; the X-tree loosens it for supernodes."""
        if node.capacity != self.capacity:
            raise IndexError_(
                f"node capacity {node.capacity} differs from tree capacity "
                f"{self.capacity}"
            )

    def check_invariants(self) -> None:
        """Raise :class:`IndexError_` on any violated structural invariant.

        Checked by the tree tests after inserts and STR bulk loads:

        * MBR containment — every entry box lies inside the box its
          parent stores for the node (exactly, no tolerance: MBRs are
          min/max aggregates of the very same floats),
        * level coherence and parent back-pointers,
        * fanout bounds — ``min_fill <= size <= capacity`` for every
          non-root node (the root may hold fewer, but a directory root
          must keep >= 2 children),
        * per-node capacity rules (supernode rules in the X-tree),
        * the leaf entry count equals :attr:`size`.
        """
        stack = [(self.root, None, None)]
        seen = 0
        while stack:
            node, lo_bound, hi_bound = stack.pop()
            self._check_node_capacity(node)
            if node.size > node.capacity:
                raise IndexError_(
                    f"node holds {node.size} entries, capacity {node.capacity}"
                )
            if node is not self.root:
                if node.size < self.min_fill:
                    raise IndexError_(
                        f"underfull non-root node ({node.size} < {self.min_fill})"
                    )
            elif not node.is_leaf and node.size < 2:
                raise IndexError_("directory root with fewer than 2 children")
            if node.size:
                lo, hi = node.mbr()
                if lo_bound is not None and (
                    np.any(lo < lo_bound) or np.any(hi > hi_bound)
                ):
                    raise IndexError_("child MBR escapes parent MBR")
            if node.is_leaf:
                seen += node.size
            else:
                for i, child in enumerate(node.children):
                    if child.level != node.level - 1:
                        raise IndexError_("level mismatch")
                    if child.parent is not node:
                        raise IndexError_("broken parent pointer")
                    stack.append((child, node.lowers[i], node.uppers[i]))
        if seen != self.size:
            raise IndexError_(f"tree holds {seen} entries, expected {self.size}")
