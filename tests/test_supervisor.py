"""The supervised parallel runtime (repro.runtime.supervisor).

The fault-matrix tests here spawn real worker processes and inject
real crashes/hangs, so most are marked ``slow``; CI runs them with
``--runslow -k "crash or hang or corrupt or resume"``.  Every recovery
path is asserted to produce the rule set of the serial miner —
exactness is the whole point of quarantine-instead-of-drop.
"""

import json
import os
import signal

import pytest

from repro.core.dmc_imp import find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.partitioned import (
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.runtime import faults
from repro.runtime.faults import (
    Fault,
    FaultPlan,
    SimulatedCrash,
    WorkerFault,
    WorkerFaultPlan,
)
from repro.runtime.supervisor import (
    ShardLedger,
    Supervisor,
    SupervisorError,
    SupervisorReport,
    Task,
    graceful_interrupts,
)
from tests.conftest import random_binary_matrix


def _double(x):
    """Picklable task function for the pool tests."""
    return 2 * x


class _FailsThenSucceeds:
    """In-process flaky task fn (serial mode never pickles it)."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def __call__(self, payload):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient failure {self.calls}")
        return payload


def _tasks(n: int):
    return [Task(task_id=f"t-{i}", payload=i) for i in range(n)]


def _matrix(seed: int = 7, rows: int = 80, cols: int = 16) -> BinaryMatrix:
    import numpy as np

    generator = np.random.default_rng(seed)
    dense = (generator.random((rows, cols)) < 0.3).astype(np.uint8)
    return BinaryMatrix.from_dense(dense)


# ----------------------------------------------------------------------
# Serial mode and parameter validation (no processes spawned)
# ----------------------------------------------------------------------


class TestSerial:
    def test_single_worker_runs_in_process(self):
        report = Supervisor(_double, n_workers=1).run(_tasks(3))
        assert report.mode == "serial"
        assert report.results(_tasks(3)) == [0, 2, 4]
        assert report.worker_restarts == 0

    def test_degrades_when_multiprocessing_unavailable(self, monkeypatch):
        import repro.runtime.transport as transport_module

        monkeypatch.setattr(
            transport_module, "_mp_available", lambda: False
        )
        report = Supervisor(_double, n_workers=4).run(_tasks(4))
        assert report.mode == "serial"
        assert report.results(_tasks(4)) == [0, 2, 4, 6]

    def test_retries_transient_failures(self):
        fn = _FailsThenSucceeds(failures=2)
        supervisor = Supervisor(
            fn, n_workers=1, task_retries=2, backoff_base=0.001
        )
        report = supervisor.run(_tasks(1))
        assert report.results(_tasks(1)) == [0]
        assert report.task_retries == 2

    def test_raises_when_retries_exhausted(self):
        fn = _FailsThenSucceeds(failures=99)
        supervisor = Supervisor(
            fn, n_workers=1, task_retries=1, backoff_base=0.001
        )
        with pytest.raises(SupervisorError):
            supervisor.run(_tasks(1))

    def test_invalid_serial_result_raises(self):
        supervisor = Supervisor(
            _double, n_workers=1, validate=lambda result: False
        )
        with pytest.raises(SupervisorError):
            supervisor.run(_tasks(1))

    def test_duplicate_task_ids_rejected(self):
        tasks = [Task("same", 1), Task("same", 2)]
        with pytest.raises(ValueError, match="duplicate"):
            Supervisor(_double).run(tasks)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Supervisor(_double, task_retries=-1)
        with pytest.raises(ValueError):
            Supervisor(_double, task_timeout=0)


# ----------------------------------------------------------------------
# Graceful interrupts
# ----------------------------------------------------------------------


class TestGracefulInterrupts:
    def test_sigterm_becomes_keyboard_interrupt(self):
        import time

        with pytest.raises(KeyboardInterrupt):
            with graceful_interrupts():
                os.kill(os.getpid(), signal.SIGTERM)
                # The handler fires at the next bytecode boundary.
                time.sleep(1.0)
                pytest.fail("SIGTERM was not delivered")

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_interrupts():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


# ----------------------------------------------------------------------
# Shard ledger (no processes spawned)
# ----------------------------------------------------------------------


class TestShardLedger:
    def test_round_trip(self, tmp_path):
        ledger = ShardLedger(str(tmp_path), fingerprint={"k": "v"})
        ledger.record("a", [1, 2])
        ledger.record("b", [3])
        fresh = ShardLedger(str(tmp_path), fingerprint={"k": "v"})
        assert fresh.load() == {"a": [1, 2], "b": [3]}

    def test_fingerprint_mismatch_discards(self, tmp_path):
        ledger = ShardLedger(str(tmp_path), fingerprint={"k": "v"})
        ledger.record("a", [1])
        other = ShardLedger(str(tmp_path), fingerprint={"k": "DIFFERENT"})
        assert other.load() == {}
        assert not os.path.exists(ledger.path)  # stale file cleared

    def test_torn_file_discards(self, tmp_path):
        ledger = ShardLedger(str(tmp_path), fingerprint={})
        with open(ledger.path, "w", encoding="utf-8") as handle:
            handle.write('{"version": 1, "fingerprint"')  # torn write
        assert ledger.load() == {}

    def test_clear_removes_manifest(self, tmp_path):
        ledger = ShardLedger(str(tmp_path), fingerprint={})
        ledger.record("a", [1])
        ledger.clear()
        assert not os.path.exists(ledger.path)
        assert ledger.load() == {}

    def test_preloaded_results_skip_execution(self, tmp_path):
        ledger = ShardLedger(str(tmp_path), fingerprint={})
        ledger.record("t-0", 999)
        supervisor = Supervisor(_double, n_workers=1, ledger=ledger)
        report = supervisor.run(_tasks(2))
        assert report.outcomes["t-0"].from_ledger
        assert report.outcomes["t-0"].result == 999  # not recomputed
        assert report.outcomes["t-1"].result == 2


# ----------------------------------------------------------------------
# Pool mode with real spawned workers
# ----------------------------------------------------------------------


class TestPool:
    def test_clean_pool_matches_serial(self):
        tasks = _tasks(4)
        report = Supervisor(_double, n_workers=2).run(tasks)
        assert report.mode == "pool"
        assert report.results(tasks) == [0, 2, 4, 6]
        assert report.worker_restarts == 0
        assert report.tasks_quarantined == 0

    @pytest.mark.slow
    def test_crash_recovery_matches_serial_rules(self):
        matrix = _matrix()
        want = find_implication_rules(matrix, 0.7).pairs()
        plan = WorkerFaultPlan(faults=(
            WorkerFault(
                mode="crash", task_id="implication-part-0001", attempts=1
            ),
        ))
        stats = PipelineStats()
        got = find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=4, n_workers=2,
            stats=stats, worker_faults=plan,
        ).pairs()
        assert got == want
        assert stats.worker_restarts >= 1
        assert stats.task_retries >= 1
        assert stats.tasks_quarantined == 0

    @pytest.mark.slow
    def test_crash_quarantine_preserves_rules(self):
        matrix = _matrix()
        want = find_implication_rules(matrix, 0.7).pairs()
        plan = WorkerFaultPlan(faults=(
            WorkerFault(
                mode="crash", task_id="implication-part-0002", attempts=99
            ),
        ))
        stats = PipelineStats()
        got = find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=4, n_workers=2,
            stats=stats, task_retries=1, worker_faults=plan,
        ).pairs()
        assert got == want  # quarantine re-runs serially: never dropped
        assert stats.tasks_quarantined == 1
        assert stats.worker_restarts >= 2

    @pytest.mark.slow
    @pytest.mark.timeout(180)
    def test_hang_recovery_matches_serial_rules(self):
        matrix = _matrix()
        want = find_implication_rules(matrix, 0.7).pairs()
        plan = WorkerFaultPlan(faults=(
            WorkerFault(
                mode="hang", task_id="implication-part-0000", attempts=1
            ),
        ))
        stats = PipelineStats()
        got = find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=4, n_workers=2,
            stats=stats, task_timeout=1.0, worker_faults=plan,
        ).pairs()
        assert got == want
        assert stats.worker_restarts >= 1

    @pytest.mark.slow
    def test_corrupt_result_recovery_matches_serial_rules(self):
        matrix = _matrix()
        want = find_similarity_rules(matrix, 0.4).pairs()
        plan = WorkerFaultPlan(faults=(
            WorkerFault(
                mode="corrupt", task_id="similarity-part-0001", attempts=1
            ),
        ))
        stats = PipelineStats()
        got = find_similarity_rules_partitioned(
            matrix, 0.4, n_partitions=4, n_workers=2,
            stats=stats, worker_faults=plan,
        ).pairs()
        assert got == want
        assert stats.task_retries >= 1

    @pytest.mark.timeout(180)
    def test_crash_storm_breaks_pool_and_finishes_in_process(self):
        """Every worker dies on every task: the death budget trips
        before any task burns its retries, the pool is declared broken,
        and the unfinished tasks finish in-process, exactly."""
        tasks = _tasks(6)
        plan = WorkerFaultPlan(faults=(
            WorkerFault(mode="crash", task_id=None, attempts=10**6),
        ))
        # The pool breaks after max(6, 2 * (4 + 1), 2 * 2 + 2) = 10
        # deaths without progress; the six tasks take turns dying, so
        # none reaches the 5 failures that would quarantine it.
        report = Supervisor(
            _double, n_workers=2, task_retries=4, backoff_base=0.001,
            worker_faults=plan,
        ).run(tasks)
        assert report.mode == "pool"
        assert report.pool_broken
        assert report.tasks_quarantined == 0
        assert report.worker_restarts > 6
        serial = Supervisor(_double, n_workers=1).run(tasks)
        assert report.results(tasks) == serial.results(tasks)
        assert not any(
            outcome.quarantined for outcome in report.outcomes.values()
        )

    @pytest.mark.slow
    def test_any_task_crash_fault_still_exact(self):
        """``task_id=None`` crashes every first attempt; all recover."""
        matrix = _matrix()
        want = find_implication_rules(matrix, 0.7).pairs()
        plan = WorkerFaultPlan(faults=(
            WorkerFault(mode="crash", task_id=None, attempts=1),
        ))
        got = find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=3, n_workers=2, worker_faults=plan,
        ).pairs()
        assert got == want


# ----------------------------------------------------------------------
# Ledger resume across a supervisor death
# ----------------------------------------------------------------------


class TestResume:
    @pytest.mark.slow
    def test_resume_after_supervisor_crash(self, tmp_path):
        matrix = _matrix()
        want = find_implication_rules(matrix, 0.7).pairs()
        ledger_dir = str(tmp_path / "ledger")

        # The third ledger write kills the supervisor process itself.
        plan = FaultPlan(
            [Fault("ledger.save", first=3, error=SimulatedCrash)]
        )
        with pytest.raises(SimulatedCrash):
            with faults.install(plan):
                find_implication_rules_partitioned(
                    matrix, 0.7, n_partitions=4, n_workers=2,
                    ledger_dir=ledger_dir,
                )

        # The atomic manifest survived with the first two partitions.
        with open(os.path.join(ledger_dir, "ledger.json")) as handle:
            recorded = json.load(handle)["tasks"]
        assert len(recorded) == 2

        # The re-run resumes the unfinished partitions and is exact.
        stats = PipelineStats()
        got = find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=4, n_workers=2,
            ledger_dir=ledger_dir, stats=stats,
        ).pairs()
        assert got == want
        assert not os.path.exists(os.path.join(ledger_dir, "ledger.json"))

    @pytest.mark.slow
    def test_resume_ignores_ledger_for_different_parameters(self, tmp_path):
        matrix = _matrix()
        ledger_dir = str(tmp_path / "ledger")
        plan = FaultPlan(
            [Fault("ledger.save", first=2, error=SimulatedCrash)]
        )
        with pytest.raises(SimulatedCrash):
            with faults.install(plan):
                find_implication_rules_partitioned(
                    matrix, 0.7, n_partitions=4, n_workers=2,
                    ledger_dir=ledger_dir,
                )
        # Different threshold: the stale ledger must not poison the run.
        want = find_implication_rules(matrix, 0.8).pairs()
        got = find_implication_rules_partitioned(
            matrix, 0.8, n_partitions=4, n_workers=2,
            ledger_dir=ledger_dir,
        ).pairs()
        assert got == want


# ----------------------------------------------------------------------
# Streaming pipeline: interrupt mid-pass-2 leaves a loadable checkpoint
# ----------------------------------------------------------------------


class TestStreamInterrupt:
    def test_sigint_mid_pass2_checkpoint_resume(self, tmp_path):
        from repro.matrix.stream import MatrixSource, stream_implication_rules

        matrix = random_binary_matrix(3)
        want = find_implication_rules(matrix, 0.7).pairs()
        checkpoint_dir = str(tmp_path / "ckpt")

        plan = FaultPlan(
            [Fault("pass2.row", first=2, error=KeyboardInterrupt)]
        )
        with pytest.raises(KeyboardInterrupt):
            with faults.install(plan):
                stream_implication_rules(
                    MatrixSource(matrix), 0.7,
                    checkpoint_dir=checkpoint_dir,
                )

        # The pass-1 checkpoint survived; the re-run resumes at pass 2
        # (no pre-scan phase) and mines the exact rule set.
        stats = PipelineStats()
        got = stream_implication_rules(
            MatrixSource(matrix), 0.7,
            checkpoint_dir=checkpoint_dir, stats=stats,
        ).pairs()
        assert got == want
        assert "pre-scan" not in stats.timer.seconds


# ----------------------------------------------------------------------
# Facade exposure (repro.mine / MiningConfig)
# ----------------------------------------------------------------------


class TestFacade:
    def test_mining_config_validates_supervised_knobs(self):
        from repro.api import MiningConfig

        with pytest.raises(ValueError):
            MiningConfig(threshold=0.9, task_retries=-1)
        with pytest.raises(ValueError):
            MiningConfig(threshold=0.9, task_timeout=0.0)
        with pytest.raises(ValueError, match="n_partitions"):
            MiningConfig(threshold=0.9, n_partitions=0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="n_workers"):
                MiningConfig(threshold=0.9, n_workers=workers)
        # Only the worker pool reads a shard ledger.
        for workers in (None, 1):
            with pytest.raises(ValueError, match="ledger_dir"):
                MiningConfig(
                    threshold=0.9, engine="partitioned",
                    n_workers=workers, ledger_dir="ledger",
                )

    def test_mine_supervised_partitioned(self, tmp_path):
        import repro

        matrix = _matrix(rows=60, cols=12)
        want = find_implication_rules(matrix, 0.7).pairs()
        result = repro.mine(
            matrix, minconf=0.7, engine="partitioned", n_partitions=3,
            n_workers=2, task_retries=1,
            ledger_dir=str(tmp_path / "ledger"),
        )
        assert result.engine == "partitioned+vector"
        assert result.rules.pairs() == want

    def test_observer_counters_exported(self):
        from repro.observe import RunObserver

        matrix = _matrix(rows=60, cols=12)
        observer = RunObserver()
        stats = PipelineStats()
        plan = WorkerFaultPlan(faults=(
            WorkerFault(
                mode="crash", task_id="implication-part-0001", attempts=1
            ),
        ))
        find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=3, n_workers=2,
            stats=stats, observer=observer, worker_faults=plan,
        )
        observer.finish(stats)
        text = observer.metrics.to_prometheus()
        assert "dmc_worker_restarts_total 1" in text
        assert "dmc_task_retries_total 1" in text
        assert "dmc_tasks_quarantined_total 0" in text  # exists at zero
        assert "dmc_task_seconds" in text
        assert 'dmc_tasks_completed_total{path="pool"} 3' in text
        blob = json.dumps(observer.metrics.to_dict())
        assert "dmc_worker_restarts_total" in blob
        assert "dmc_tasks_quarantined_total" in blob


# ----------------------------------------------------------------------
# Clock discipline: interval math must survive wall-clock steps
# ----------------------------------------------------------------------


class TestMonotonicClock:
    """Hang detection and heartbeats run on ``time.monotonic()`` —
    an NTP step (or DST jump) on the coordinator host must neither
    fire false hang kills nor mask real hangs."""

    def _handle(self):
        from repro.runtime.transport import _WorkerHandle

        class _Beat:
            value = 0.0

        handle = _WorkerHandle(0, None, None, None, _Beat())
        handle.task = Task(task_id="t-0", payload=0)
        return handle

    def test_hung_measures_from_last_heartbeat(self):
        handle = self._handle()
        handle.assigned_at = 100.0
        handle.heartbeat.value = 101.0
        assert not handle.hung(105.0, timeout=10.0)
        assert handle.hung(112.0, timeout=10.0)

    def test_not_hung_before_first_heartbeat_of_assignment(self):
        # The heartbeat still carries the *previous* task's stamp:
        # the worker is importing/unpickling, not hanging.
        handle = self._handle()
        handle.assigned_at = 100.0
        handle.heartbeat.value = 50.0
        assert not handle.hung(1000.0, timeout=1.0)

    def test_no_timeout_never_hangs(self):
        handle = self._handle()
        handle.assigned_at = 0.0
        handle.heartbeat.value = 1.0
        assert not handle.hung(1e9, timeout=None)

    def test_idle_worker_never_hangs(self):
        handle = self._handle()
        handle.task = None
        assert not handle.hung(1e9, timeout=0.001)

    @pytest.mark.timeout(180)
    def test_pool_run_immune_to_wall_clock_steps(self, monkeypatch):
        """A wall clock frozen *and* jumped backwards must not affect
        the pool: every supervisor-side interval is monotonic.  (Wall
        time is only ever used for reporting and cross-host lease
        expiry.)"""
        import repro.runtime.supervisor as supervisor_mod
        import repro.runtime.transport as transport_mod

        class SteppingClock:
            """time.time() that jumps an hour backwards per call."""

            def __init__(self):
                self.now = 1e9

            def __call__(self):
                self.now -= 3600.0
                return self.now

        stepping = SteppingClock()
        monkeypatch.setattr(supervisor_mod.time, "time", stepping)
        monkeypatch.setattr(transport_mod.time, "time", stepping)
        report = Supervisor(
            _double, n_workers=2, task_timeout=30.0
        ).run(_tasks(4))
        assert report.results(_tasks(4)) == [0, 2, 4, 6]
        assert report.worker_restarts == 0
        assert report.tasks_quarantined == 0


# ----------------------------------------------------------------------
# Dual-coordinator ledger fencing
# ----------------------------------------------------------------------


class TestLedgerOwnership:
    """Two coordinators pointed at one ledger_dir: the second takes
    over, the first gets a typed ``LedgerFenced`` on its next write
    instead of silently interleaving manifests."""

    def test_second_ledger_fences_the_first(self, tmp_path):
        from repro.runtime.supervisor import LedgerFenced

        first = ShardLedger(str(tmp_path), {"kind": "demo"})
        first.record("t-0", [1, 2])
        second = ShardLedger(str(tmp_path), {"kind": "demo"})
        with pytest.raises(LedgerFenced):
            first.record("t-1", [3, 4])
        with pytest.raises(LedgerFenced):
            first.clear()
        # The new owner keeps working, with the old owner's state.
        assert second.load() == {"t-0": [1, 2]}
        second.record("t-1", [3, 4])
        assert second.load() == {"t-0": [1, 2], "t-1": [3, 4]}

    def test_ledger_fenced_is_a_lease_fenced(self):
        from repro.runtime.storage import LeaseFenced
        from repro.runtime.supervisor import LedgerFenced

        assert issubclass(LedgerFenced, LeaseFenced)

    def test_fenced_coordinator_cannot_corrupt_manifest(self, tmp_path):
        from repro.runtime.supervisor import LedgerFenced

        first = ShardLedger(str(tmp_path), {"kind": "demo"})
        first.record("t-0", [1])
        second = ShardLedger(str(tmp_path), {"kind": "demo"})
        second.record("t-1", [2])
        for _ in range(3):
            with pytest.raises(LedgerFenced):
                first.record("t-stale", [9])
        assert "t-stale" not in second.load()
