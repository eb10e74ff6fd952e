"""Index substrate: the paper's spatial access methods and page model.

The paper accelerates similarity queries with an X-tree over extended
centroids and compares against a sequential scan; runtimes are reported
under an explicit I/O cost model (8 ms per page access, 200 ns per byte
read, Section 5.4).  This subpackage provides those pieces:

* :mod:`repro.index.pages` — the page manager and cost model,
* :mod:`repro.index.arraycore` — the immutable array core, and
  :func:`~repro.index.arraycore.densify`, the STR pack that builds one
  (the static X-tree of the access-structure ablation),
* :mod:`repro.index.rstar` — an R*-tree (insert-only),
* :mod:`repro.index.xtree` — the X-tree (R*-tree with supernodes), the
  incrementally built index of Table 2's rows.

Only the X-tree serves Table 2; the R*-tree and the array core serve
the access-structure ablation and the X-tree's tests.  The database
imports none of them, ranks the engine's centroid column and writes no
index into its snapshots (whose file format is
:mod:`repro.db.archive`).
"""

from repro.index.pages import IOCost, PageManager
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree

__all__ = [
    "PageManager",
    "IOCost",
    "RStarTree",
    "XTree",
]
