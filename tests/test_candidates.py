"""The counter array (repro.core.candidates)."""

from repro.core.candidates import (
    BYTES_PER_ENTRY,
    BYTES_PER_LIST,
    CandidateArray,
)
from repro.core.stats import ScanStats


class TestLifecycle:
    def test_ensure_creates_once(self):
        cand = CandidateArray()
        first = cand.ensure(3)
        assert cand.ensure(3) is first

    def test_get_missing_is_none(self):
        assert CandidateArray().get(0) is None

    def test_release_clears_entries(self):
        cand = CandidateArray()
        cand.ensure(0)
        cand.add(0, 1, 0)
        cand.release(0)
        assert cand.total_entries == 0
        assert cand.get(0) is None

    def test_release_is_idempotent(self):
        cand = CandidateArray()
        cand.release(0)
        assert cand.total_entries == 0


class TestEntries:
    def test_add_and_items(self):
        cand = CandidateArray()
        cand.ensure(0)
        cand.add(0, 1, 2)
        assert cand.get(0) == {1: 2}

    def test_remove(self):
        cand = CandidateArray()
        cand.ensure(0)
        cand.add(0, 1, 0)
        cand.remove(0, 1)
        assert cand.total_entries == 0
        assert cand.get(0) == {}

    def test_total_entries_across_lists(self):
        cand = CandidateArray()
        for column in (0, 1):
            cand.ensure(column)
            cand.add(column, 5, 0)
        assert cand.total_entries == 2


class TestMemoryModel:
    def test_memory_bytes_formula(self):
        cand = CandidateArray()
        cand.ensure(0)
        cand.add(0, 1, 0)
        cand.add(0, 2, 0)
        assert cand.memory_bytes() == 2 * BYTES_PER_ENTRY + BYTES_PER_LIST

    def test_peaks_are_monotone(self):
        """The scan's peak is the array's size at row boundaries; a
        release after the peak row leaves it standing."""
        cand = CandidateArray()
        stats = ScanStats()
        cand.ensure(0)
        for k in range(1, 6):
            cand.add(0, k, 0)
        stats.record_rows(1, cand.total_entries, cand.memory_bytes())
        peak_before = stats.peak_bytes
        cand.release(0)
        stats.record_rows(1, cand.total_entries, cand.memory_bytes())
        assert cand.memory_bytes() == 0
        assert stats.peak_bytes == peak_before
        assert stats.peak_entries == 5

    def test_peak_tracks_high_watermark(self):
        """Growth undone within a row never reaches the peak: the
        counter array's peak is row-granular."""
        cand = CandidateArray()
        stats = ScanStats()
        cand.ensure(0)
        cand.add(0, 1, 0)
        cand.add(0, 2, 0)
        cand.remove(0, 1)
        stats.record_rows(1, cand.total_entries, cand.memory_bytes())
        assert stats.peak_entries == 1
        assert cand.total_entries == 1

    def test_repr(self):
        cand = CandidateArray()
        cand.ensure(0)
        assert "lists=1" in repr(cand)
