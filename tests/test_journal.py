"""The run journal (repro.observe.journal) and its CLI.

Pins the durability contract (torn-tail tolerance, disable-on-dead-
disk, fsync discipline through the storage layer) and the acceptance
claim that ``summarize`` reconstructs the engine's pruning curve
point-for-point from ``curve-sample`` events.
"""

import errno
import json
import threading

import pytest

from repro.api import mine
from repro.cli import main
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.observe import (
    RunJournal,
    RunObserver,
    read_journal,
    summarize_journal,
    tail_journal,
)
from repro.runtime.storage import FaultyStorage, StorageFault
from tests.conftest import random_binary_matrix


def _journal_path(tmp_path) -> str:
    return str(tmp_path / "telemetry" / "run.jsonl")


class TestRunJournal:
    def test_events_round_trip_with_identity_and_sequence(self, tmp_path):
        path = _journal_path(tmp_path)
        with RunJournal(path, "run-1") as journal:
            journal.emit("run-start", task="implication")
            journal.emit("phase-start", name="pre-scan")
            journal.emit("run-end", rules=3)
        records = list(read_journal(path))
        assert [r["event"] for r in records] == [
            "run-start", "phase-start", "run-end",
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["run_id"] == "run-1" for r in records)
        assert all("ts" in r for r in records)
        assert records[2]["rules"] == 3

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = _journal_path(tmp_path)
        with RunJournal(path, "run-1") as journal:
            journal.emit("run-start")
            journal.emit("phase-start", name="scan")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "run-1", "seq": 2, "eve')  # torn
        records = list(read_journal(path))
        assert [r["seq"] for r in records] == [0, 1]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = _journal_path(tmp_path)
        with RunJournal(path, "run-1") as journal:
            journal.emit("run-start")
        with open(path, "r+", encoding="utf-8") as handle:
            handle.seek(0)
            handle.write("garbage")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "run-1", "seq": 1, "event": "x"}\n')
        with pytest.raises(ValueError, match="corrupt journal line 1"):
            list(read_journal(path))

    def test_tail_returns_the_last_records(self, tmp_path):
        path = _journal_path(tmp_path)
        with RunJournal(path, "run-1") as journal:
            for index in range(10):
                journal.emit("curve-sample", rows_scanned=index)
        tail = tail_journal(path, count=3)
        assert [r["rows_scanned"] for r in tail] == [7, 8, 9]
        assert len(tail_journal(path, count=0)) == 10

    def test_dead_disk_disables_instead_of_raising(self, tmp_path):
        path = _journal_path(tmp_path)
        storage = FaultyStorage(faults=(
            StorageFault(op="fsync", code=errno.ENOSPC),
        ))
        journal = RunJournal(path, "run-1", storage=storage, fsync_every=1)
        journal.emit("run-start")  # first fsync trips ENOSPC
        journal.emit("phase-start", name="scan")  # silently dropped
        assert journal.disabled
        assert journal.error == "ENOSPC"
        journal.close()  # still idempotent and quiet

    def test_writes_go_through_the_storage_layer(self, tmp_path):
        path = _journal_path(tmp_path)
        storage = FaultyStorage()
        with RunJournal(path, "run-1", storage=storage) as journal:
            journal.emit("run-start")
        ops = [op for op, _ in storage.op_log]
        assert "open-write" in ops
        assert "fsync" in ops  # close() always syncs the tail

    def test_concurrent_emitters_interleave_without_tearing(self, tmp_path):
        path = _journal_path(tmp_path)
        journal = RunJournal(path, "run-1")

        def emitter(worker: int):
            for index in range(200):
                journal.emit("curve-sample", worker=worker, index=index)

        threads = [
            threading.Thread(target=emitter, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        records = list(read_journal(path))
        assert len(records) == 800
        assert sorted(r["seq"] for r in records) == list(range(800))


class TestJournalFromRuns:
    def _curve_from_stats(self, stats: PipelineStats):
        return [list(point) for point in stats.pruning_curve]

    @pytest.mark.parametrize("kwargs", [
        {"minconf": 0.7}, {"minsim": 0.4},
    ])
    def test_summarize_reconstructs_the_engine_curve(self, tmp_path, kwargs):
        matrix = random_binary_matrix(11, max_rows=200, max_columns=12)
        path = _journal_path(tmp_path)
        result = mine(matrix, journal_path=path, **kwargs)
        summary = summarize_journal(path)
        assert summary["run_id"] == result.run_id
        assert summary["rules"] == len(result.rules)
        curves = summary["pruning_curves"]
        scan = "<100%-rules"  # the partial pass of both rule kinds
        assert scan in curves
        assert curves[scan]  # non-empty for both rule kinds
        # The journal carries the engine's curve point-for-point.
        engine_curve = self._curve_from_stats(result.stats)
        assert curves[scan] == engine_curve
        live = [point[1] for point in engine_curve]
        # Non-increasing once seeding ends: pruning only shrinks.
        peak = live.index(max(live))
        assert live[peak:] == sorted(live[peak:], reverse=True)

    def test_phases_and_lifecycle_events_are_recorded(self, tmp_path):
        matrix = random_binary_matrix(5, max_rows=120, max_columns=10)
        path = _journal_path(tmp_path)
        mine(matrix, minconf=0.8, journal_path=path)
        summary = summarize_journal(path)
        assert summary["events"]["run-start"] == 1
        assert summary["events"]["run-end"] == 1
        names = [phase["name"] for phase in summary["phases"]]
        assert "100%-rules" in names
        assert all(
            phase["seconds"] is not None for phase in summary["phases"]
        )
        assert summary["wall_seconds"] >= 0

    def test_unwritable_journal_degrades_not_aborts(self, tmp_path):
        matrix = random_binary_matrix(5, max_rows=60, max_columns=8)
        storage = FaultyStorage(faults=(
            StorageFault(
                op="open-write", path_contains="run.jsonl",
                code=errno.EROFS,
            ),
        ))
        with pytest.warns(RuntimeWarning, match="run journal disabled"):
            result = mine(
                matrix, minconf=0.8,
                journal_path=_journal_path(tmp_path), storage=storage,
            )
        assert len(result.rules) == len(mine(matrix, minconf=0.8).rules)
        assert "journal-off" in result.stats.degradations

    def test_journal_dying_at_fsync_takes_the_journal_off_rung(
        self, tmp_path
    ):
        """A journal that opened and then died is recorded like one
        that never opened: in the stats and both metrics."""
        matrix = random_binary_matrix(5, max_rows=60, max_columns=8)
        storage = FaultyStorage(faults=(
            StorageFault(op="fsync", path_contains="run.jsonl"),
        ))
        observer = RunObserver()
        with pytest.warns(RuntimeWarning, match="run journal disabled"):
            result = mine(
                matrix, minconf=0.8, observer=observer,
                journal_path=_journal_path(tmp_path), storage=storage,
            )
        assert result.rules == mine(matrix, minconf=0.8).rules
        assert result.stats.degradations == ["journal-off"]
        metrics = observer.metrics
        assert metrics.value("dmc_degradations_total", path="journal-off") == 1
        assert metrics.value("dmc_io_errors_total", kind="ENOSPC") == 1

    def test_run_id_is_stamped_through(self, tmp_path):
        matrix = random_binary_matrix(5, max_rows=60, max_columns=8)
        path = _journal_path(tmp_path)
        result = mine(
            matrix, minconf=0.8, journal_path=path, run_id="my-run-42",
        )
        assert result.run_id == "my-run-42"
        assert all(r["run_id"] == "my-run-42" for r in read_journal(path))

    def test_caller_attached_journal_is_not_closed_by_mine(self, tmp_path):
        matrix = random_binary_matrix(5, max_rows=60, max_columns=8)
        path = _journal_path(tmp_path)
        journal = RunJournal(path, "caller-owned")
        observer = RunObserver(journal=journal)
        mine(matrix, minconf=0.8, observer=observer, journal_path=path)
        journal.emit("run-start", note="still-open")  # caller still owns it
        assert not journal.disabled
        journal.close()
        assert any(
            r.get("note") == "still-open" for r in read_journal(path)
        )


class TestJournalCli:
    def _write_run(self, tmp_path) -> str:
        matrix = random_binary_matrix(9, max_rows=120, max_columns=10)
        path = _journal_path(tmp_path)
        mine(matrix, minconf=0.8, journal_path=path)
        return path

    def test_tail_prints_json_records(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["journal", "tail", path, "--count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["event"] == "run-end"

    def test_summarize_renders_the_run_story(self, tmp_path, capsys):
        path = self._write_run(tmp_path)
        assert main(["journal", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "run " in out
        assert "phases:" in out
        assert "pruning curve [" in out
        assert "events:" in out

    def test_summarize_tolerates_retired_distributed_events(
        self, tmp_path, capsys
    ):
        """Journals from runs on the retired remote transport carry
        ``lease-expired``/``node-redispatch`` lines; they still fold."""
        path = _journal_path(tmp_path)
        with RunJournal(path, "run-old") as journal:
            journal.emit("run-start", task="implication", engine="partitioned")
            journal.emit("phase-start", name="partition-mining")
            journal.emit("lease-expired", task_id="t-1", token=1)
            journal.emit("node-redispatch", task_id="t-1", token=2, node="n")
            journal.emit("phase-end", name="partition-mining", seconds=0.5)
            journal.emit("run-end", rules=3)
        summary = summarize_journal(path)
        assert summary["run_id"] == "run-old"
        assert summary["events"]["lease-expired"] == 1
        assert summary["events"]["node-redispatch"] == 1
        assert [phase["name"] for phase in summary["phases"]] == [
            "partition-mining",
        ]
        assert main(["journal", "summarize", path]) == 0
        assert "phases:" in capsys.readouterr().out

    def test_summarize_reads_run_start_with_a_block_size(
        self, tmp_path, capsys
    ):
        """Older runs recorded ``vector_block_rows`` on ``run-start``;
        the summary still reads them, preferring the run-end engine."""
        path = _journal_path(tmp_path)
        with RunJournal(path, "run-old") as journal:
            journal.emit(
                "run-start", task="similarity", engine="vector",
                vector_block_rows=1024,
            )
            journal.emit("run-end", rules=3, engine="dmc")
        summary = summarize_journal(path)
        assert (summary["engine"], summary["rules"]) == ("dmc", 3)
        assert main(["journal", "summarize", path]) == 0
        assert capsys.readouterr().out.startswith("run run-old [dmc]: 3")

    def test_missing_journal_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            ["journal", "tail", str(tmp_path / "absent.jsonl")]
        ) == 1
        assert "cannot read journal" in capsys.readouterr().err
