"""Sort-Tile-Recursive (STR) bulk loading for the R*-/X-tree.

Inserting one point at a time builds a good tree but costs O(n log n)
choose-subtree work and produces ~70 % fill; STR (Leutenegger et al.
1997) packs fully filled leaves by recursively tiling the data along
each dimension and is the standard way to build a static index — which
is exactly the situation of the paper's experiments (load the whole
dataset, then query), and how :class:`repro.db.SimilarityDatabase`
packs the immutable core it ranks with (``densify(bulk_load(...))``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pages import PageManager
from repro.index.rstar import RStarTree, _Node
from repro.index.xtree import XTree


def _tile(points: np.ndarray, order: np.ndarray, capacity: int, axis: int) -> list[np.ndarray]:
    """Recursively tile *order* (indices into points) into runs of at
    most *capacity*, slicing along *axis* first.

    Runs are near-equal parts, never a full-size prefix plus a
    remainder: ``len`` entries in ``ceil(len / capacity)`` runs leave
    every run at least ``ceil(capacity / 2)`` long, so no packed node is
    underfull.  A slab is a near-equal share of those runs (whole runs,
    not a share of the entries), so tiling the remaining axes adds no
    leaves beyond ``ceil(len / capacity)``."""
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


def bulk_load(
    points: np.ndarray,
    oids: list[int] | None = None,
    tree_class: type[RStarTree] = RStarTree,
    page_manager: PageManager | None = None,
    capacity: int | None = None,
    fill: float = 0.9,
) -> RStarTree:
    """Build a packed tree over *points* with STR.

    Parameters
    ----------
    points:
        ``(n, d)`` array.
    oids:
        Object ids (default ``0..n-1``).
    tree_class:
        :class:`RStarTree` or :class:`XTree`.
    page_manager, capacity:
        Passed through to the tree constructor.
    fill:
        Target leaf fill factor (packing to 100 % makes the first
        subsequent insert split every node; 0.9 is customary).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or not len(pts):
        raise IndexError_("bulk_load needs a non-empty (n, d) array")
    if not 0.1 <= fill <= 1.0:
        raise IndexError_("fill must be in [0.1, 1.0]")
    if oids is None:
        oids = list(range(len(pts)))
    if len(oids) != len(pts):
        raise IndexError_("need one oid per point")

    tree = tree_class(pts.shape[1], page_manager=page_manager, capacity=capacity)
    per_leaf = max(tree.min_fill, int(tree.capacity * fill))

    # Build leaves by STR tiling.
    groups = _tile(pts, np.arange(len(pts)), per_leaf, axis=0)
    nodes: list[_Node] = []
    for group in groups:
        leaf = tree._new_node(level=0)
        leaf.set_entries(
            pts[group].copy(), pts[group].copy(), [oids[g] for g in group]
        )
        nodes.append(leaf)

    # Pack upper levels the same way over the node centers.
    level = 1
    while len(nodes) > 1:
        centers = np.vstack([(node.mbr()[0] + node.mbr()[1]) / 2.0 for node in nodes])
        groups = _tile(centers, np.arange(len(nodes)), per_leaf, axis=0)
        parents: list[_Node] = []
        for group in groups:
            parent = tree._new_node(level=level)
            lowers = np.vstack([nodes[g].mbr()[0] for g in group])
            uppers = np.vstack([nodes[g].mbr()[1] for g in group])
            parent.set_entries(lowers, uppers, [nodes[g] for g in group])
            parents.append(parent)
        nodes = parents
        level += 1

    tree.root = nodes[0]
    tree.size = len(pts)
    return tree
