"""M-tree: a metric access method (Ciaccia, Patella & Zezula 1997).

Because the minimal matching distance is a metric (Lemma 1), vector sets
can be indexed directly in a metric tree — the "simplest approach" to
accelerating vector-set queries mentioned in Section 4.3, against which
the paper positions its centroid filter.  This implementation supports
arbitrary payload objects with a user-supplied metric, counts both page
accesses and distance evaluations (the dominant CPU cost), and provides
range and k-nn search with the standard triangle-inequality pruning.

It is a paper-remark structure, not a serving path: insert-only like the
original M-tree, without snapshots or an array core.  As a database
backend it was the fastest in no cell of the backend trial
(EXPERIMENTS.md) — each of its distance evaluations is one scalar
matching, ten times the batched kernel's cost per pair — so what remains
is what ``benchmarks/test_ablation_index_structures.py`` needs to examine
the paper's remark.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pages import PageManager

Metric = Callable[[object, object], float]

#: Relative slack applied to every *internal* pruning predicate (parent
#: -distance pre-tests and covering-ball descent).  The triangle
#: inequality holds for the exact metric, but each stored distance is a
#: rounded float, so a mathematically-valid prune can overshoot by a few
#: ulps and drop a result whose distance ties the query boundary
#: exactly.  Loosening the predicates by one part in 10^9 means rounding
#: can only make the search visit *more* entries — results themselves
#: are always filtered on the exact metric value, so correctness and
#: bit-identical agreement with the sequential baseline are preserved.
PRUNE_SLACK = 1e-9


class _MEntry:
    """One entry: a routing object (internal) or a data object (leaf)."""

    __slots__ = ("obj", "oid", "dist_to_parent", "radius", "subtree")

    def __init__(self, obj, oid=None, dist_to_parent=0.0, radius=0.0, subtree=None):
        self.obj = obj
        self.oid = oid
        self.dist_to_parent = dist_to_parent
        self.radius = radius
        self.subtree = subtree


class _MNode:
    __slots__ = ("entries", "is_leaf", "page_id")

    def __init__(self, is_leaf: bool, page_id: int):
        self.entries: list[_MEntry] = []
        self.is_leaf = is_leaf
        self.page_id = page_id


class MTree:
    """Metric tree over arbitrary objects.

    Parameters
    ----------
    metric:
        The distance function; must satisfy the metric axioms for the
        pruning to be correct (the minimal matching distance with norm
        weights qualifies by Lemma 1).
    capacity:
        Maximum entries per node.
    page_manager:
        Shared page manager for I/O accounting.
    """

    def __init__(
        self,
        metric: Metric,
        capacity: int = 16,
        page_manager: PageManager | None = None,
    ):
        if capacity < 4:
            raise IndexError_("M-tree capacity must be >= 4")
        self.metric = metric
        self.capacity = capacity
        self.pages = page_manager or PageManager()
        self.root = self._new_node(is_leaf=True)
        self.size = 0
        self.distance_computations = 0

    def _new_node(self, is_leaf: bool) -> _MNode:
        return _MNode(is_leaf, self.pages.allocate())

    def _distance(self, a, b) -> float:
        self.distance_computations += 1
        return float(self.metric(a, b))

    # -- insertion -------------------------------------------------------

    def insert(self, obj, oid: int) -> None:
        path: list[tuple[_MNode, _MEntry | None]] = []
        node, parent_entry = self.root, None
        while not node.is_leaf:
            path.append((node, parent_entry))
            best_entry, best_dist, best_enlarge = None, np.inf, np.inf
            for entry in node.entries:
                dist = self._distance(obj, entry.obj)
                enlargement = max(0.0, dist - entry.radius)
                if (enlargement, dist) < (best_enlarge, best_dist):
                    best_entry, best_dist, best_enlarge = entry, dist, enlargement
            assert best_entry is not None
            best_entry.radius = max(best_entry.radius, best_dist)
            node, parent_entry = best_entry.subtree, best_entry
        dist_to_parent = (
            self._distance(obj, parent_entry.obj) if parent_entry is not None else 0.0
        )
        node.entries.append(_MEntry(obj, oid=oid, dist_to_parent=dist_to_parent))
        self.size += 1
        if len(node.entries) > self.capacity:
            self._split(node, path)

    def _promote(self, entries: Sequence[_MEntry]) -> tuple[int, int]:
        """Choose two promotion objects: the pair with maximum distance
        (mM_RAD-like; exact over all pairs, fine for small capacities)."""
        best = (0, 1)
        best_dist = -1.0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                dist = self._distance(entries[i].obj, entries[j].obj)
                if dist > best_dist:
                    best_dist, best = dist, (i, j)
        return best

    def _split(self, node: _MNode, path: list[tuple[_MNode, _MEntry | None]]) -> None:
        entries = node.entries
        first, second = self._promote(entries)
        pivot_a, pivot_b = entries[first].obj, entries[second].obj

        group_a: list[_MEntry] = []
        group_b: list[_MEntry] = []
        radius_a = radius_b = 0.0
        for entry in entries:
            dist_a = self._distance(entry.obj, pivot_a)
            dist_b = self._distance(entry.obj, pivot_b)
            child_extent = entry.radius  # 0 for leaf entries
            if dist_a <= dist_b:
                entry.dist_to_parent = dist_a
                group_a.append(entry)
                radius_a = max(radius_a, dist_a + child_extent)
            else:
                entry.dist_to_parent = dist_b
                group_b.append(entry)
                radius_b = max(radius_b, dist_b + child_extent)

        sibling = self._new_node(node.is_leaf)
        node.entries = group_a
        sibling.entries = group_b
        entry_a = _MEntry(pivot_a, radius=radius_a, subtree=node)
        entry_b = _MEntry(pivot_b, radius=radius_b, subtree=sibling)

        if path:
            parent, grand_entry = path[-1]
            parent.entries = [e for e in parent.entries if e.subtree is not node]
            for entry in (entry_a, entry_b):
                entry.dist_to_parent = (
                    self._distance(entry.obj, grand_entry.obj)
                    if grand_entry is not None
                    else 0.0
                )
                parent.entries.append(entry)
            # Parent radii may need to grow to cover the new balls.
            if grand_entry is not None:
                for entry in (entry_a, entry_b):
                    grand_entry.radius = max(
                        grand_entry.radius, entry.dist_to_parent + entry.radius
                    )
            if len(parent.entries) > self.capacity:
                self._split(parent, path[:-1])
        else:
            new_root = self._new_node(is_leaf=False)
            new_root.entries = [entry_a, entry_b]
            self.root = new_root

    # -- queries -----------------------------------------------------------

    def range_search(self, query, radius: float) -> list[tuple[int, float]]:
        """All ``(oid, distance)`` with distance <= radius."""
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        results: list[tuple[int, float]] = []
        # Stack holds (node, distance from query to the node's parent object).
        stack: list[tuple[_MNode, float | None]] = [(self.root, None)]
        while stack:
            node, parent_dist = stack.pop()
            self.pages.read(node.page_id)
            for entry in node.entries:
                # Cheap pre-test via the precomputed parent distance.  The
                # prune threshold is inflated by PRUNE_SLACK so float
                # rounding can only cause extra work, never a missed hit.
                if parent_dist is not None and abs(
                    parent_dist - entry.dist_to_parent
                ) > (radius + entry.radius) * (1.0 + PRUNE_SLACK):
                    continue
                dist = self._distance(query, entry.obj)
                if node.is_leaf:
                    if dist <= radius:
                        results.append((entry.oid, dist))
                elif dist <= (radius + entry.radius) * (1.0 + PRUNE_SLACK):
                    stack.append((entry.subtree, dist))
        results.sort(key=lambda pair: (pair[1], pair[0]))
        return results

    def knn(self, query, k: int) -> list[tuple[int, float]]:
        """The k nearest ``(oid, distance)`` pairs.

        Ties at the k-th distance resolve canonically by ascending oid,
        matching the sequential-scan baseline, so differential tests can
        assert literal result equality across access methods.
        """
        if k < 1:
            raise IndexError_("k must be >= 1")
        counter = itertools.count()
        # Priority queue of subtrees by (slack-guarded) optimistic distance.
        queue: list[tuple[float, int, _MNode, float | None]] = [
            (0.0, next(counter), self.root, None)
        ]
        # Max-heap over (distance, oid) via negation: best[0] is the
        # current k-th candidate, the first to be displaced.
        best: list[tuple[float, int]] = []

        def kth_key() -> tuple[float, int]:
            if len(best) < k:
                return (np.inf, 2**63)
            return (-best[0][0], -best[0][1])

        while queue:
            bound, _, node, parent_dist = heapq.heappop(queue)
            if bound > kth_key()[0]:
                break
            self.pages.read(node.page_id)
            for entry in node.entries:
                if parent_dist is not None and abs(
                    parent_dist - entry.dist_to_parent
                ) > (kth_key()[0] + entry.radius) * (1.0 + PRUNE_SLACK):
                    continue
                dist = self._distance(query, entry.obj)
                if node.is_leaf:
                    if (dist, entry.oid) < kth_key():
                        if len(best) == k:
                            heapq.heapreplace(best, (-dist, -entry.oid))
                        else:
                            heapq.heappush(best, (-dist, -entry.oid))
                else:
                    optimistic = max(0.0, dist - entry.radius) * (1.0 - PRUNE_SLACK)
                    if optimistic <= kth_key()[0]:
                        heapq.heappush(
                            queue, (optimistic, next(counter), entry.subtree, dist)
                        )
        result = [(-neg_oid, -neg_dist) for neg_dist, neg_oid in best]
        result.sort(key=lambda pair: (pair[1], pair[0]))
        return result

    # -- introspection -------------------------------------------------------

    def node_count(self) -> int:
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(entry.subtree for entry in node.entries)
        return count

    def check_invariants(self) -> None:
        """Verify the full set of M-tree structural invariants.

        * fanout: every node holds at most ``capacity`` entries and — the
          root aside — at least one;
        * covering radii: every leaf object lies inside the ball of
          *every* ancestor routing entry (up to a relative float
          tolerance, since post-split radii accumulate rounded
          triangle-inequality sums).  Note the balls themselves need not
          nest — a split only re-extends the immediate grandparent — so
          object containment is the invariant, exactly what the pruning
          predicates rely on;
        * ``dist_to_parent`` caches equal the recomputed metric value;
        * all leaves sit at the same depth;
        * the leaf entry count matches ``self.size``.

        Raises :class:`IndexError_` on the first violation.  Distance
        evaluations here call the metric directly so the accounting in
        ``distance_computations`` — a measured quantity in the paper's
        experiments — is not polluted by debugging sweeps.
        """

        def tol(radius: float) -> float:
            return 1e-9 * (1.0 + radius)

        seen = 0
        leaf_depths: set[int] = set()
        # Stack of (node, depth, ancestors) with ancestors a tuple of
        # (routing_obj, radius) from the root down.
        stack: list[tuple[_MNode, int, tuple]] = [(self.root, 0, ())]
        while stack:
            node, depth, ancestors = stack.pop()
            if len(node.entries) > self.capacity:
                raise IndexError_(
                    f"node with {len(node.entries)} entries exceeds "
                    f"capacity {self.capacity}"
                )
            if not node.entries and node is not self.root:
                raise IndexError_("empty non-root node")
            if node.is_leaf:
                leaf_depths.add(depth)
            parent = ancestors[-1] if ancestors else None
            for entry in node.entries:
                if parent is not None:
                    dist = float(self.metric(entry.obj, parent[0]))
                    if abs(dist - entry.dist_to_parent) > tol(dist):
                        raise IndexError_(
                            f"stale dist_to_parent: cached "
                            f"{entry.dist_to_parent}, metric gives {dist}"
                        )
                if node.is_leaf:
                    seen += 1
                    for anc_obj, anc_radius in ancestors:
                        dist = float(self.metric(entry.obj, anc_obj))
                        if dist > anc_radius + tol(anc_radius):
                            raise IndexError_(
                                "leaf object escapes an ancestor's "
                                f"covering radius ({dist} > {anc_radius})"
                            )
                else:
                    stack.append(
                        (
                            entry.subtree,
                            depth + 1,
                            ancestors + ((entry.obj, entry.radius),),
                        )
                    )
        if len(leaf_depths) > 1:
            raise IndexError_(f"leaves at unequal depths {sorted(leaf_depths)}")
        if seen != self.size:
            raise IndexError_(f"tree holds {seen} objects, expected {self.size}")

    def validate(self) -> None:
        """Backwards-compatible alias for :meth:`check_invariants`."""
        self.check_invariants()
