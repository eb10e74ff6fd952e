"""Index substrate: spatial and metric access methods with I/O accounting.

The paper accelerates similarity queries with an X-tree over extended
centroids and compares against a sequential scan; runtimes are reported
under an explicit I/O cost model (8 ms per page access, 200 ns per byte
read, Section 5.4).  This subpackage provides all of those pieces:

* :mod:`repro.index.pages` — the page manager and cost model,
* :mod:`repro.index.rstar` — an R*-tree,
* :mod:`repro.index.xtree` — the X-tree (R*-tree with supernodes),
* :mod:`repro.index.mtree` — an M-tree for metric data such as vector
  sets under the minimal matching distance (insert-only; kept for the
  access-structure ablation, not a database backend),
* :mod:`repro.index.scan` — sequential-scan baselines with the same
  query interface and accounting.
"""

from repro.index.bulkload import bulk_load
from repro.index.mtree import MTree
from repro.index.pages import IOCost, PageManager
from repro.index.rstar import RStarTree
from repro.index.scan import SequentialScan
from repro.index.snapshot import load_index, save_index, structure_digest
from repro.index.xtree import XTree

__all__ = [
    "PageManager",
    "IOCost",
    "RStarTree",
    "XTree",
    "MTree",
    "SequentialScan",
    "bulk_load",
    "save_index",
    "load_index",
    "structure_digest",
]
