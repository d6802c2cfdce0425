"""Instrumentation types (repro.core.stats)."""

import json
import time

import numpy as np

import repro
from repro.core.stats import (
    DEFAULT_CURVE_MAX_POINTS,
    PhaseTimer,
    PipelineStats,
    ScanStats,
)
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import save_transactions
from repro.mining.export import stats_from_json, stats_to_json


class TestScanStats:
    def test_record_row_tracks_peaks(self):
        stats = ScanStats()
        stats.record_rows(1, 5, 100)
        stats.record_rows(1, 3, 60)
        stats.record_rows(4, 9, 200)
        stats.record_rows(1, 2, 20)
        assert stats.peak_entries == 9
        assert stats.peak_bytes == 200
        assert stats.rows_scanned == 7

    def test_defaults(self):
        stats = ScanStats()
        assert stats.bitmap_switch_at is None
        assert stats.rules_emitted == 0


class TestPhaseTimer:
    def test_phase_accumulates(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            time.sleep(0.01)
        with timer.phase("work"):
            time.sleep(0.01)
        assert timer.seconds["work"] >= 0.02
        assert timer.total() == timer.seconds["work"]

    def test_phase_records_on_exception(self):
        timer = PhaseTimer()
        try:
            with timer.phase("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in timer.seconds

    def test_multiple_phases(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert set(timer.seconds) == {"a", "b"}


class TestPipelineStats:
    def test_peaks_span_both_scans(self):
        stats = PipelineStats()
        stats.hundred_percent_scan.record_rows(1, 3, 30)
        stats.partial_scan.record_rows(1, 7, 70)
        assert stats.peak_entries == 7
        assert stats.peak_bytes == 70

    def test_breakdown_mirrors_timer(self):
        stats = PipelineStats()
        with stats.timer.phase("pre-scan"):
            pass
        assert list(stats.breakdown()) == ["pre-scan"]
        assert stats.total_seconds == stats.timer.total()

    def test_documents_with_retired_node_counters_still_load(self):
        """Stats written while distributed mining and the supervised
        worker pool existed carry their counters; they load, and the
        rest of the record survives."""
        stats = PipelineStats(columns_total=2, rules_partial=3)
        record = json.loads(stats_to_json(stats))
        record.update(
            lease_expiries=4, node_redispatches=1, node_results_deduped=5,
            worker_restarts=2, task_retries=3, tasks_quarantined=1,
        )
        loaded = stats_from_json(json.dumps(record))
        assert loaded.columns_total == 2
        assert loaded.rules_partial == 3
        assert loaded.to_dict() == stats.to_dict()

    def test_documents_with_scan_histories_still_load(self):
        """Stats written while each scan stored per-row
        ``candidate_history``/``memory_history`` lists (as stored
        service results hold them) load; every other field survives."""
        stats = repro.mine(
            [["a", "b"], ["a", "b", "c"], ["b"], ["a", "c"]],
            minconf="1/2",
        ).stats
        record = stats.to_dict()
        for scan in ("hundred_percent_scan", "partial_scan"):
            rows = record[scan]["rows_scanned"]
            record[scan] = {
                "candidate_history": list(range(rows)),
                "memory_history": [8 * row for row in range(rows)],
                **record[scan],
            }
        assert PipelineStats.from_dict(record).to_dict() == stats.to_dict()
        for document in (
            json.dumps(record, indent=2),
            json.dumps({"rules": [], "stats": record}, indent=2),
        ):
            assert stats_from_json(document).to_dict() == stats.to_dict()


def test_stream_stats_document_is_bounded_in_rows(tmp_path):
    """A scan stores no per-row history: the stats document of a stream
    mine over 16x the rows grows by at most what the two scans' bounded
    pruning curves can hold."""
    rng = np.random.default_rng(0)
    n_rows = 1000
    dense = (rng.random((16 * n_rows, 40)) < 0.2).astype(np.uint8)
    lengths = []
    for rows in (n_rows, 16 * n_rows):
        path = str(tmp_path / f"rows-{rows}.txt")
        save_transactions(BinaryMatrix.from_dense(dense[:rows]), path)
        result = repro.mine(path, minconf="1/2", engine="stream")
        nonempty = int(np.count_nonzero(dense[:rows].any(axis=1)))
        assert result.stats.partial_scan.rows_scanned == nonempty
        lengths.append(len(stats_to_json(result.stats)))
    # One point is four ints of at most 10 digits, indented at depth 5.
    point_bytes = 4 * len("          1234567890,\n") + 2 * len("        ],\n")
    assert lengths[1] - lengths[0] <= 2 * DEFAULT_CURVE_MAX_POINTS * point_bytes
    # Tight enough to see per-row records: two ints a row per scan
    # added ~51 bytes a row to this document.
    assert 2 * DEFAULT_CURVE_MAX_POINTS * point_bytes < 51 * 15 * n_rows
