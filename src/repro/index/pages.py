"""Page manager and the paper's I/O cost model.

Section 5.4: "One page access was counted as 8 ms and for the costs of
reading one byte we counted 200 ns."  Data and access structures fit in
main memory, so the paper *simulates* I/O by counting logical page
accesses and bytes read — exactly what :class:`PageManager` does.  Every
index node and every stored object occupies one or more logical pages;
query processing reports its accounting as an :class:`IOCost`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import IndexError_
from repro.obs import counter

#: The paper's cost constants.
SECONDS_PER_PAGE_ACCESS = 8e-3
SECONDS_PER_BYTE = 200e-9

DEFAULT_PAGE_SIZE = 4096


@dataclass
class IOCost:
    """Accumulated logical I/O with the paper's cost conversion."""

    page_accesses: int = 0
    bytes_read: int = 0

    def seconds(self) -> float:
        """Simulated I/O time under the paper's constants."""
        return (
            self.page_accesses * SECONDS_PER_PAGE_ACCESS
            + self.bytes_read * SECONDS_PER_BYTE
        )

    def copy(self) -> "IOCost":
        return IOCost(self.page_accesses, self.bytes_read)

    def __str__(self) -> str:
        return (
            f"{self.page_accesses} page accesses, {self.bytes_read} bytes "
            f"({self.seconds() * 1e3:.1f} ms simulated)"
        )


@dataclass
class PageManager:
    """Allocates logical pages and records read traffic.

    Pages carry only a byte size — payloads stay in the owning data
    structures; the manager exists purely for deterministic cost
    accounting, mirroring how the paper simulated I/O time on an
    in-memory dataset.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    cost: IOCost = field(default_factory=IOCost)
    _page_bytes: dict[int, int] = field(default_factory=dict)
    _next_id: int = 0

    def allocate(self, nbytes: int | None = None) -> int:
        """Allocate a logical page (default: one full page of payload)
        and return its id."""
        if nbytes is None:
            nbytes = self.page_size
        if nbytes < 0:
            raise IndexError_("page payload must be non-negative")
        page_id = self._next_id
        self._next_id += 1
        self._page_bytes[page_id] = nbytes
        return page_id

    def resize(self, page_id: int, nbytes: int) -> None:
        """Update the payload size of a page (e.g. after a node split)."""
        if page_id not in self._page_bytes:
            raise IndexError_(f"unknown page id {page_id}")
        if nbytes < 0:
            raise IndexError_("page payload must be non-negative")
        self._page_bytes[page_id] = nbytes

    def read(self, page_id: int) -> None:
        """Record a read of the page: the number of page accesses grows
        with the payload's page span, the byte counter with the payload."""
        try:
            nbytes = self._page_bytes[page_id]
        except KeyError:
            raise IndexError_(f"unknown page id {page_id}") from None
        spans = max(1, -(-nbytes // self.page_size))
        self.cost.page_accesses += spans
        self.cost.bytes_read += nbytes
        counter("io.page_accesses").inc(spans)
        counter("io.bytes_read").inc(nbytes)

    def read_spans(self, spans: int, nbytes: int) -> None:
        """Record a batched node-table read: *spans* page accesses and
        *nbytes* payload bytes in one call.

        The array cores read whole node batches from contiguous tables
        rather than one page object at a time; this entry point keeps
        ``io.page_accesses`` identical to what per-node :meth:`read`
        calls over the same node set would have charged, so Table 2
        comparisons stay valid.
        """
        if spans < 0 or nbytes < 0:
            raise IndexError_("batched read must be non-negative")
        self.cost.page_accesses += spans
        self.cost.bytes_read += nbytes
        counter("io.page_accesses").inc(spans)
        counter("io.bytes_read").inc(nbytes)

    def read_bytes(self, nbytes: int) -> None:
        """Record a raw sequential read of *nbytes* (for scan baselines):
        pages are derived from the byte count."""
        if nbytes < 0:
            raise IndexError_("cannot read a negative number of bytes")
        spans = max(1, -(-nbytes // self.page_size)) if nbytes else 0
        self.cost.page_accesses += spans
        self.cost.bytes_read += nbytes
        counter("io.page_accesses").inc(spans)
        counter("io.bytes_read").inc(nbytes)

    def reset(self) -> IOCost:
        """Zero the counters and return the previous totals."""
        previous = self.cost
        self.cost = IOCost()
        return previous

    def total_bytes(self) -> int:
        return sum(self._page_bytes.values())
