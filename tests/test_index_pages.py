"""Tests for the page manager and the paper's I/O cost model."""

import pytest

from repro.exceptions import IndexError_
from repro.index.pages import (
    SECONDS_PER_BYTE,
    SECONDS_PER_PAGE_ACCESS,
    IOCost,
    PageManager,
)


class TestCostModel:
    def test_paper_constants(self):
        """Section 5.4: 8 ms per page access, 200 ns per byte."""
        assert SECONDS_PER_PAGE_ACCESS == pytest.approx(8e-3)
        assert SECONDS_PER_BYTE == pytest.approx(200e-9)

    def test_seconds_conversion(self):
        cost = IOCost(page_accesses=100, bytes_read=1_000_000)
        assert cost.seconds() == pytest.approx(100 * 8e-3 + 1_000_000 * 200e-9)


class TestPageManager:
    def test_read_counts_pages_and_bytes(self):
        manager = PageManager(page_size=4096)
        page = manager.allocate(1000)
        manager.read(page)
        assert manager.cost.page_accesses == 1
        assert manager.cost.bytes_read == 1000

    def test_multi_page_payload_spans(self):
        manager = PageManager(page_size=4096)
        big = manager.allocate(10_000)  # spans 3 pages
        manager.read(big)
        assert manager.cost.page_accesses == 3

    def test_read_bytes_derives_pages(self):
        manager = PageManager(page_size=1000)
        manager.read_bytes(2500)
        assert manager.cost.page_accesses == 3
        assert manager.cost.bytes_read == 2500

    def test_read_zero_bytes_is_free(self):
        manager = PageManager()
        manager.read_bytes(0)
        assert manager.cost.page_accesses == 0

    def test_reset_returns_previous(self):
        manager = PageManager()
        page = manager.allocate()
        manager.read(page)
        previous = manager.reset()
        assert previous.page_accesses == 1
        assert manager.cost.page_accesses == 0

    def test_resize(self):
        manager = PageManager(page_size=100)
        page = manager.allocate(50)
        manager.resize(page, 250)
        manager.read(page)
        assert manager.cost.page_accesses == 3

    def test_unknown_page_rejected(self):
        manager = PageManager()
        with pytest.raises(IndexError_):
            manager.read(999)
        with pytest.raises(IndexError_):
            manager.resize(999, 10)

    def test_negative_sizes_rejected(self):
        manager = PageManager()
        with pytest.raises(IndexError_):
            manager.allocate(-1)
        with pytest.raises(IndexError_):
            manager.read_bytes(-5)

    def test_total_accounting(self):
        manager = PageManager()
        manager.allocate(10)
        manager.allocate(20)
        assert len(manager._page_bytes) == 2
        assert manager.total_bytes() == 30
