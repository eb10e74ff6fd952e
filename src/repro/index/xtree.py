"""X-tree: an R*-tree that trades splits for supernodes (Berchtold,
Keim & Kriegel 1996).

In high-dimensional spaces R*-tree directory splits produce heavily
overlapping siblings, which forces queries to descend both.  The X-tree
measures the overlap a pending split would create and, if it exceeds a
threshold, keeps the node as a *supernode* of enlarged capacity (and
correspondingly larger page span) instead of splitting.  The paper
stores its extended centroids — and the one-vector model's 6k-d features
— in an X-tree (Sections 4.3 and 5.4).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pages import PageManager
from repro.index.rstar import RStarTree, _Node, _areas, _overlap


class XTree(RStarTree):
    """R*-tree with supernodes.

    Parameters
    ----------
    max_overlap:
        Maximum tolerated fraction of the split halves' combined area
        that may overlap; above it a directory node becomes a supernode.
        The original X-tree paper suggests 20 %.
    max_supernode_factor:
        Safety cap on supernode growth, in multiples of the base
        capacity.
    """

    def __init__(
        self,
        dimension: int,
        page_manager: PageManager | None = None,
        capacity: int | None = None,
        reinsert_fraction: float = 0.3,
        max_overlap: float = 0.2,
        max_supernode_factor: int = 64,
    ):
        super().__init__(dimension, page_manager, capacity, reinsert_fraction)
        if not 0.0 <= max_overlap <= 1.0:
            raise IndexError_("max_overlap must be in [0, 1]")
        if max_supernode_factor < 2:
            raise IndexError_("max_supernode_factor must be >= 2")
        self.max_overlap = max_overlap
        self.max_supernode_factor = max_supernode_factor
        self.supernodes_created = 0
        self.supernodes_dissolved = 0

    def _split_overlap_fraction(self, node: _Node) -> float:
        """Overlap fraction of the best available split of *node*."""
        left_idx, right_idx = self._choose_split(node.lowers, node.uppers)
        lo_l = node.lowers[left_idx].min(axis=0)
        hi_l = node.uppers[left_idx].max(axis=0)
        lo_r = node.lowers[right_idx].min(axis=0)
        hi_r = node.uppers[right_idx].max(axis=0)
        overlap = _overlap(lo_l, hi_l, lo_r, hi_r)
        union = float(_areas(lo_l, hi_l) + _areas(lo_r, hi_r)) - overlap
        if union <= 0:
            # Degenerate (zero-volume) boxes: decide by margin instead —
            # identical boxes mean a split gains nothing.
            return 1.0 if np.allclose(lo_l, lo_r) and np.allclose(hi_l, hi_r) else 0.0
        return overlap / union

    def _extend_supernode(self, node: _Node) -> None:
        node.capacity += self.capacity
        self.supernodes_created += 1
        # A supernode spans several logical pages; reading it costs more.
        pages_spanned = -(-node.capacity // self.capacity)
        self.pages.resize(node.page_id, pages_spanned * self.pages.page_size)

    def _overflow(self, node: _Node, overflown: set[int]) -> None:
        # Leaves behave exactly like in the R*-tree.
        if node.is_leaf:
            super()._overflow(node, overflown)
            return
        if node.capacity < self.capacity * self.max_supernode_factor:
            if self._split_overlap_fraction(node) > self.max_overlap:
                self._extend_supernode(node)
                return
        self._split(node, overflown)

    def _fit_capacity(self, node: _Node) -> None:
        """Right-size a (possibly super) node's capacity to its contents.

        The capacity is the smallest multiple of the base capacity that
        holds the node's entries, so ``size > capacity - base`` holds for
        every supernode — the tightness rule :meth:`check_invariants`
        asserts.  The node's logical page span shrinks (or grows)
        accordingly.
        """
        if node.is_leaf:
            return
        base = self.capacity
        fitted = max(base, base * -(-node.size // base))
        if fitted == node.capacity:
            return
        if fitted == base and node.capacity > base:
            self.supernodes_dissolved += 1
        elif fitted > base and node.capacity == base:
            self.supernodes_created += 1
        node.capacity = fitted
        pages_spanned = -(-fitted // base)
        self.pages.resize(node.page_id, pages_spanned * self.pages.page_size)

    def _split(self, node: _Node, overflown: set[int]) -> _Node:
        """R* split, then right-size both halves.

        A splitting supernode hands each half up to ``size - min_fill``
        entries — possibly still more than the base capacity — so the
        surviving node's extended capacity and the fresh sibling's base
        capacity must both be re-fitted to their actual contents (the
        sibling could otherwise be born overfull, and the survivor would
        keep paying a supernode's page span for a half-empty node).
        """
        sibling = super()._split(node, overflown)
        if not node.is_leaf:
            self._fit_capacity(node)
            self._fit_capacity(sibling)
        return sibling

    def _check_node_capacity(self, node: _Node) -> None:
        """Supernode size rules (checked by :meth:`check_invariants`).

        Leaves always keep the base capacity.  A directory node's
        capacity is a multiple of the base capacity, bounded by
        ``max_supernode_factor``, and *tight*: a supernode spanning ``m``
        pages must hold more entries than ``m - 1`` pages could, or the
        split path's :meth:`_fit_capacity` should have reclaimed the span.
        """
        base = self.capacity
        if node.is_leaf:
            if node.capacity != base:
                raise IndexError_(f"leaf with non-base capacity {node.capacity}")
            return
        if node.capacity % base != 0 or node.capacity < base:
            raise IndexError_(
                f"directory capacity {node.capacity} is not a multiple of {base}"
            )
        if node.capacity > base * self.max_supernode_factor:
            raise IndexError_(
                f"supernode capacity {node.capacity} exceeds the "
                f"{self.max_supernode_factor}x safety cap"
            )
        if node.capacity > base and node.size <= node.capacity - base:
            raise IndexError_(
                f"loose supernode: {node.size} entries span "
                f"{node.capacity // base} pages"
            )
