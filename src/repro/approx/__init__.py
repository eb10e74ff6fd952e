"""Approximate candidate tier: LSH set sketches + Hamming shortlisting.

See :mod:`repro.approx.sketch` (set → packed binary sketch),
:mod:`repro.approx.hamming` (Hamming ranking over the engine's code
column) and :mod:`repro.approx.engine` (queries whose Hamming shortlist is the
candidate source of the exact refine cascade).
"""

from repro.approx.engine import ApproxFilterRefineEngine, default_shortlist
from repro.approx.hamming import HammingIndex
from repro.approx.sketch import (
    DEFAULT_NNZ,
    DEFAULT_WIDTH,
    DEFAULT_WTA,
    SetSketcher,
)

__all__ = [
    "ApproxFilterRefineEngine",
    "HammingIndex",
    "SetSketcher",
    "default_shortlist",
    "DEFAULT_WIDTH",
    "DEFAULT_NNZ",
    "DEFAULT_WTA",
]
