"""Approximate filter-refine: a Hamming shortlist feeds the exact cascade.

:class:`ApproxFilterRefineEngine` composes the three exact-tier pieces
this package adds nothing to: the existing
:class:`~repro.core.queries.FilterRefineEngine` (the refine cascade,
canonical result order, and the code column holding every object's
sketch), a :class:`~repro.approx.sketch.SetSketcher` (query → packed
code) and a :class:`~repro.approx.hamming.HammingIndex` over the
engine's oids and codes (code → shortlist).  A query sketches once,
Hamming-ranks the database, and runs the exact k-nn cascade with only
the ``shortlist`` best codes as its candidate source — so results are
always true distances over a possibly-incomplete candidate set, never
approximate distances.  With ``shortlist >= n`` the result equals the
exact engine's by construction.  Every approximate query records
``approx.shortlist_size`` and ``approx.exact_skipped`` (objects never
solved) in :mod:`repro.obs`.
"""

from __future__ import annotations

import numpy as np

from repro.approx.hamming import HammingIndex
from repro.approx.sketch import SetSketcher
from repro.core.queries import FilterRefineEngine, QueryMatch, QueryStats
from repro.exceptions import QueryError
from repro.obs import emit, registry, span
from repro.obs import querylog

__all__ = ["ApproxFilterRefineEngine", "default_shortlist"]


def default_shortlist(n_neighbors: int) -> int:
    """Default Hamming budget: generous oversampling of small k."""
    return max(8 * n_neighbors, 64)


class ApproxFilterRefineEngine:
    """Sketch-shortlisted approximate k-nn over an exact engine whose
    code column holds *sketcher*'s code of every stored set."""

    def __init__(self, engine: FilterRefineEngine, sketcher: SetSketcher):
        codes = engine.codes
        if codes is None or codes.shape[1] != sketcher.words:
            held = "no" if codes is None else f"{codes.shape[1]}-word"
            raise QueryError(
                f"sketcher produces {sketcher.words}-word codes but the "
                f"engine carries {held} codes"
            )
        self.engine = engine
        self.sketcher = sketcher

    def knn_query(
        self,
        query: np.ndarray,
        n_neighbors: int,
        *,
        shortlist: int | None = None,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Approximate k-nn: the exact k-nn cascade over a Hamming shortlist.

        ``shortlist`` is the candidate budget (clamped to at least
        ``n_neighbors``, at most the database size); ``None`` picks
        :func:`default_shortlist`.  Returned distances are exact, and
        the result order is the same canonical ``(distance, oid)`` key
        as the exact engine's.
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        budget = default_shortlist(n_neighbors) if shortlist is None else int(shortlist)
        if budget < 1:
            raise QueryError("shortlist budget must be >= 1")
        budget = max(budget, n_neighbors)
        n = len(self.engine)
        with span("query.approx_knn", k=n_neighbors, budget=budget):
            # The sketch + Hamming shortlist runs before the subset
            # cascade; its measured time rides into the wide query
            # record as the shortlist_seconds context field.
            with span("query.shortlist", force=True, budget=budget) as ssp:
                code = self.sketcher.sketch(query)
                hamming = HammingIndex(self.engine.oids, self.engine.codes)
                candidates = hamming.shortlist(code[None, :], budget)[0]
            with querylog.query_context(
                mode="approx",
                kind="approx_knn",
                budget=budget,
                shortlist_size=len(candidates),
                shortlist_seconds=ssp.seconds,
            ):
                results, stats = self.engine.knn_refine_subset(
                    query, n_neighbors, candidates
                )
        reg = registry()
        if reg.enabled:
            reg.counter("approx.queries").inc()
            reg.histogram("approx.shortlist_size").observe(len(candidates))
            skipped = n - stats.exact_computations
            reg.counter("approx.exact_skipped").inc(skipped)
            emit(
                "approx_query",
                k=n_neighbors,
                budget=budget,
                shortlist=len(candidates),
                exact_skipped=skipped,
            )
        return results, stats
