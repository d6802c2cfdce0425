"""Instrumentation types (repro.core.stats)."""

import json
import time

from repro.core.stats import PhaseTimer, PipelineStats, ScanStats
from repro.mining.export import stats_from_json, stats_to_json


class TestScanStats:
    def test_record_row_tracks_peaks(self):
        stats = ScanStats()
        stats.record_row(5, 100)
        stats.record_row(3, 60)
        stats.record_row(9, 200)
        assert stats.peak_entries == 9
        assert stats.peak_bytes == 200
        assert stats.rows_scanned == 3
        assert stats.candidate_history == [5, 3, 9]

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
        stats.hundred_percent_scan.record_row(3, 30)
        stats.partial_scan.record_row(7, 70)
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
