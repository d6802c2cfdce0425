"""Supervised parallel task execution for the partitioned engines.

The Section 7 divide-and-conquer algorithm turns one mining run into
independent per-partition tasks — exactly the workload where partial
failure is the common case on long runs: a worker segfaults, hangs on a
bad NFS mount, or is OOM-killed, and a bare ``multiprocessing.Pool``
aborts the whole two-pass run.  :class:`Supervisor` executes a list of
:class:`Task`\\ s with the recovery semantics a production run needs:

- **spawn-context workers** with a dedicated task queue each, so the
  supervisor always knows which task a dead worker was holding;
- **per-worker result pipes** — one writer per pipe, no feeder thread,
  no shared lock, so a worker killed mid-send can only break its *own*
  channel (a shared ``multiprocessing.Queue`` deadlocks every other
  writer when one dies holding the write lock);
- **heartbeat-based hang detection** — workers stamp a shared clock
  when they pick a task up; a task that outlives ``task_timeout`` after
  its last heartbeat gets its worker killed and respawned;
- **crash recovery** — a worker that dies mid-task is respawned and the
  task retried with exponential backoff, up to ``task_retries`` times;
- **result validation** — an optional ``validate`` callable rejects
  corrupt results, which count as failures and retry like crashes;
- **quarantine, not loss** — a task that exhausts its retries is
  re-run *serially in the supervisor process* after the pool drains, so
  a poison task degrades throughput but never drops rules (the
  exactness guarantee survives every fault);
- **shard ledger** — an optional :class:`ShardLedger` persists each
  completed task's result with the same atomic-manifest discipline as
  :mod:`repro.runtime.checkpoint`, so a killed supervisor resumes with
  only the unfinished tasks;
- **graceful degradation** — with ``n_workers <= 1``, a single task, or
  no usable ``multiprocessing``, everything runs in-process through the
  same bookkeeping; so do the tasks a broken pool (workers dying
  faster than tasks complete) leaves unfinished.

Worker-scoped faults (:class:`repro.runtime.faults.WorkerFaultPlan`)
are shipped to the spawned workers explicitly — a spawned process does
not inherit the parent's installed :class:`~repro.runtime.faults.
FaultPlan` — which is what makes crash/hang/corrupt recovery testable
deterministically.  The supervisor process itself trips the
``"ledger.save"`` site on every ledger write.

The spawn-pool mechanics live in :mod:`repro.runtime.transport`; the
supervisor holds the policy (retries, validation, quarantine, ledger)
and calls :func:`~repro.runtime.transport.run_pool` directly.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.runtime import faults
from repro.runtime.faults import WorkerFaultPlan
from repro.runtime.guards import retry_io
from repro.runtime.storage import (
    LOCAL_STORAGE,
    LeaseFenced,
    acquire_lease,
    io_error_kind,
    terminal_io_error,
    verify_lease,
)
from repro.runtime.transport import pool_usable, run_pool

#: Bump when the ledger manifest schema changes; older ledgers are stale.
LEDGER_VERSION = 1

_LEDGER_NAME = "ledger.json"

_OWNER_NAME = "owner.json"


class SupervisorError(RuntimeError):
    """A task failed even in the serial quarantine re-run."""


def transient_pool_failure(error: BaseException) -> bool:
    """True when ``error`` is a worker-pool failure a fresh run may cure.

    The job scheduler of :mod:`repro.service` retries a job (with
    backoff, on a fresh pool) when its mining run died of pool
    mechanics rather than of the job itself: a :class:`SupervisorError`
    (the pool *and* the quarantine re-run failed — e.g. the host was
    briefly out of processes or memory) or a transient ``OSError``
    (``EAGAIN``/``EIO`` class) from pool plumbing.  Fencing errors
    (:class:`LedgerFenced` — another coordinator owns the state) and
    terminal storage faults (disk full / read-only) are *not*
    transient: retrying cannot change the outcome.
    """
    if isinstance(error, LeaseFenced):
        return False
    if isinstance(error, SupervisorError):
        return True
    return isinstance(error, OSError) and not terminal_io_error(error)


class LedgerFenced(LeaseFenced):
    """A stale coordinator wrote to a ledger another process now owns.

    Two supervisors pointed at the same ``ledger_dir`` used to
    silently interleave atomic-rename writes — each one durable, the
    union of both meaningless.  The ledger now holds an owner lease
    (``owner.json``, fencing token bumped on every takeover); the
    *newest* :class:`ShardLedger` instance owns the directory, and any
    older instance's next write fails with this error instead of
    corrupting the resume state.
    """


@dataclass(frozen=True)
class Task:
    """One retryable unit of work: a deterministic id plus a payload.

    The payload must be picklable; the id must be unique within a run
    (it keys the ledger and the fault plan).
    """

    task_id: str
    payload: Any


@dataclass
class TaskOutcome:
    """How one task eventually completed."""

    task_id: str
    result: Any
    attempts: int
    seconds: float
    quarantined: bool = False
    from_ledger: bool = False


@dataclass
class SupervisorReport:
    """The run's outcomes plus the recovery counters."""

    outcomes: Dict[str, TaskOutcome] = field(default_factory=dict)
    worker_restarts: int = 0
    task_retries: int = 0
    tasks_quarantined: int = 0
    #: ``"pool"`` (spawn workers) or ``"serial"`` (in-process).
    mode: str = "serial"
    #: True when the pool died faster than it completed work and the
    #: remaining tasks were finished in-process instead.
    pool_broken: bool = False
    #: True when a terminal storage fault (disk full / read-only)
    #: switched the shard ledger off mid-run; results stay exact but
    #: partition-level resume is lost for this run.
    ledger_disabled: bool = False

    def results(self, tasks: Sequence[Task]) -> List[Any]:
        """The task results in the order of ``tasks``."""
        return [self.outcomes[task.task_id].result for task in tasks]


# ----------------------------------------------------------------------
# Graceful interrupts
# ----------------------------------------------------------------------


@contextmanager
def graceful_interrupts() -> Iterator[None]:
    """Convert SIGTERM into :class:`KeyboardInterrupt` while active.

    A terminated run then unwinds through the same ``finally`` blocks
    an interrupted one does — flushing ledgers and checkpoints instead
    of dying with them torn.  No-op off the main thread or where
    ``SIGTERM`` does not exist.
    """
    if (
        threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "SIGTERM")
    ):
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # non-main interpreter thread after all
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# ----------------------------------------------------------------------
# Shard ledger
# ----------------------------------------------------------------------


class ShardLedger:
    """Per-task completion records with atomic-manifest persistence.

    The manifest (``<dir>/ledger.json``) is written to a temp file,
    fsynced and ``os.replace``d into place after every completed task —
    the :mod:`repro.runtime.checkpoint` discipline — so a killed
    supervisor leaves either the previous ledger or the new one, never
    a torn file.  A ``fingerprint`` (source identity + mining
    parameters) is recorded and checked on load; a mismatch discards
    the ledger instead of resuming against different data.

    Results must be JSON-serializable; callers that need richer shapes
    pass ``decode=`` to :class:`Supervisor` to rebuild them on resume.

    Construction takes ownership of the directory: an owner lease
    (``owner.json``) is acquired with a bumped fencing token, and every
    subsequent write by an *older* instance — a dual coordinator, or a
    supervisor that was presumed dead and replaced — raises
    :class:`LedgerFenced` instead of interleaving manifests.  The owner
    lease has no expiry; ownership changes hands only by this explicit
    takeover.
    """

    def __init__(
        self,
        directory: str,
        fingerprint: Dict[str, object],
        observer=None,
        storage=None,
    ) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.observer = observer
        #: All durable I/O goes through this (:class:`repro.runtime.
        #: storage.Storage`); None means the local filesystem.
        self.storage = storage if storage is not None else LOCAL_STORAGE
        #: Transient manifest-write failures that were retried.
        self.io_retries = 0
        self._results: Dict[str, Any] = {}
        self.storage.makedirs(directory)
        self.owner_id = f"ledger-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._owner_lease = acquire_lease(
            self.storage, self.owner_path, owner=self.owner_id,
            ttl=None, steal=True,
        )
        if self._owner_lease is None:  # lost a takeover race outright
            raise LedgerFenced(
                f"could not take ownership of ledger dir {directory!r}"
            )

    @property
    def path(self) -> str:
        return os.path.join(self.directory, _LEDGER_NAME)

    @property
    def owner_path(self) -> str:
        return os.path.join(self.directory, _OWNER_NAME)

    def _check_owner(self) -> None:
        """Raise :class:`LedgerFenced` when this instance was superseded."""
        try:
            verify_lease(self.storage, self.owner_path, self._owner_lease)
        except LedgerFenced:
            raise
        except LeaseFenced as error:
            raise LedgerFenced(
                f"ledger dir {self.directory!r} is owned by another "
                f"coordinator: {error}"
            ) from error

    def load(self) -> Dict[str, Any]:
        """The recorded results, or ``{}`` on a missing/stale/torn ledger."""
        import json

        try:
            with self.storage.open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}
        if (
            payload.get("version") != LEDGER_VERSION
            or payload.get("fingerprint") != self.fingerprint
            or not isinstance(payload.get("tasks"), dict)
        ):
            self.clear()
            return {}
        self._results = dict(payload["tasks"])
        return dict(self._results)

    def record(self, task_id: str, result: Any) -> None:
        """Persist one completed task (atomic rewrite of the manifest).

        Load-before-write: the owner lease is re-read and fence-checked
        first, so a superseded coordinator raises :class:`LedgerFenced`
        instead of overwriting the current owner's manifest.
        """
        self._check_owner()
        self._results[task_id] = result
        retry_io(
            self._write,
            on_retry=self._note_retry,
            on_giveup=self._note_giveup,
        )

    def clear(self) -> None:
        """Delete the ledger file (the run completed or went stale).

        The owner lease itself stays — ownership ends only when another
        coordinator takes over, never by finishing a run.
        """
        self._check_owner()
        self._results = {}
        for path in (self.path, self.path + ".tmp"):
            self.storage.remove(path, missing_ok=True)

    def _note_retry(self, error: BaseException) -> None:
        self.io_retries += 1
        if self.observer is not None and self.observer.enabled:
            self.observer.on_retry("ledger.save")
            self.observer.on_io_error(io_error_kind(error))

    def _note_giveup(self, error: BaseException) -> None:
        if self.observer is not None and self.observer.enabled:
            self.observer.on_io_error(io_error_kind(error))

    def _write(self) -> None:
        import json

        faults.trip("ledger.save")
        payload = {
            "version": LEDGER_VERSION,
            "fingerprint": self.fingerprint,
            "tasks": self._results,
        }
        self.storage.atomic_write_text(self.path, json.dumps(payload))


class Supervisor:
    """Run tasks on supervised spawn workers with retry and quarantine.

    Parameters
    ----------
    fn:
        The task function, ``fn(payload) -> result``.  Must be a
        module-level (picklable) callable.
    n_workers:
        Pool size; ``<= 1`` runs everything in-process.
    task_timeout:
        Seconds a task may run after its worker picked it up before the
        worker is declared hung, killed and respawned.  ``None``
        disables hang detection.
    task_retries:
        Failed attempts (crash, hang, error, corrupt result) a task may
        accumulate before it is quarantined.
    validate:
        ``validate(result) -> bool``; a falsy verdict counts the
        attempt as failed (the corrupt-result defense).
    ledger:
        A :class:`ShardLedger`; completed tasks are recorded as they
        finish and skipped on the next run.  Cleared on full success.
    decode:
        Rebuilds a result loaded from the ledger's JSON (e.g. lists
        back into pair tuples).
    worker_faults:
        A :class:`~repro.runtime.faults.WorkerFaultPlan` shipped to
        every worker (tests only; quarantine re-runs bypass it, which
        is what restores exactness).
    observer:
        Any :class:`~repro.observe.ProgressObserver`; sees
        ``on_task_done`` / ``on_task_retry`` / ``on_worker_restart`` /
        ``on_task_quarantined`` events — plus, with
        ``worker_telemetry``, ``on_worker_telemetry`` (merged worker
        metrics/spans) and ``on_worker_heartbeats`` (liveness sweeps).
    worker_telemetry:
        Give every task attempt its own worker-side
        :class:`~repro.observe.RunObserver` (``fn`` must then accept an
        ``observer=`` keyword).  The worker ships periodic in-flight
        snapshots and one final metrics+spans document per completed
        attempt over its result pipe; the supervisor forwards finals to
        ``observer.on_worker_telemetry(payload, final=True)`` only for
        *accepted* attempts, so merged counters stay exact under
        retries and crashes.
    telemetry_flush_interval:
        Seconds between a worker's in-flight telemetry snapshots.
    backoff_base / poll_interval:
        Retry backoff seed (doubles per failure) and the result-queue
        poll granularity.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        *,
        n_workers: int = 2,
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
        validate: Optional[Callable[[Any], bool]] = None,
        ledger: Optional[ShardLedger] = None,
        decode: Optional[Callable[[Any], Any]] = None,
        worker_faults: Optional[WorkerFaultPlan] = None,
        observer=None,
        worker_telemetry: bool = False,
        telemetry_flush_interval: float = 0.5,
        backoff_base: float = 0.05,
        poll_interval: float = 0.02,
    ) -> None:
        from repro.observe.progress import NULL_OBSERVER

        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if telemetry_flush_interval <= 0:
            raise ValueError("telemetry_flush_interval must be positive")
        self.fn = fn
        self.n_workers = n_workers
        self.task_timeout = task_timeout
        self.task_retries = task_retries
        self.validate = validate
        self.ledger = ledger
        self.decode = decode
        self.worker_faults = worker_faults
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.worker_telemetry = worker_telemetry
        self.telemetry_flush_interval = telemetry_flush_interval
        self.backoff_base = backoff_base
        self.poll_interval = poll_interval
        self._next_worker_id = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[Task]) -> SupervisorReport:
        """Execute every task; return outcomes plus recovery counters.

        Raises :class:`SupervisorError` only when a task fails even in
        the serial quarantine re-run; a :class:`KeyboardInterrupt` or
        SIGTERM mid-run tears the pool down but leaves the ledger with
        every task that already completed.
        """
        seen = set()
        for task in tasks:
            if task.task_id in seen:
                raise ValueError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)

        report = SupervisorReport()
        pending: List[Task] = []
        recorded = self.ledger.load() if self.ledger is not None else {}
        for task in tasks:
            if task.task_id in recorded:
                result = recorded[task.task_id]
                if self.decode is not None:
                    result = self.decode(result)
                report.outcomes[task.task_id] = TaskOutcome(
                    task_id=task.task_id, result=result, attempts=0,
                    seconds=0.0, from_ledger=True,
                )
            else:
                pending.append(task)

        if pool_usable(len(pending), self.n_workers):
            report.mode = "pool"
            with graceful_interrupts():
                run_pool(self, pending, report)
        # A broken pool leaves tasks unfinished (and one worker or one
        # task never starts a pool): finish them in-process.
        for task in pending:
            if task.task_id not in report.outcomes:
                self._run_serial(task, report, quarantined=False)

        if self.ledger is not None:
            # Every task accounted for: the ledger has served its purpose.
            try:
                self.ledger.clear()
            except OSError as error:
                if not terminal_io_error(error):
                    raise
                warnings.warn(
                    f"could not remove the finished shard ledger: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return report

    # ------------------------------------------------------------------
    # Serial execution (degradation and quarantine re-runs)
    # ------------------------------------------------------------------

    def _run_serial(
        self, task: Task, report: SupervisorReport, quarantined: bool
    ) -> None:
        """Run one task in-process, with the same retry budget.

        With ``worker_telemetry`` on, each attempt gets its own side
        observer whose document merges into the main observer only on
        success — the same accepted-attempts-only discipline as the
        pool path, so serial degradation and quarantine re-runs keep
        the merged counters equal to a clean run's.
        """
        attempt = 0
        while True:
            attempt += 1
            started = time.perf_counter()
            side_observer = None
            if self.worker_telemetry:
                from repro.observe import RunObserver

                side_observer = RunObserver()
            try:
                if side_observer is not None:
                    result = self.fn(task.payload, observer=side_observer)
                else:
                    result = self.fn(task.payload)
            except Exception as error:
                if attempt > self.task_retries:
                    raise SupervisorError(
                        f"task {task.task_id!r} failed in-process after "
                        f"{attempt} attempt(s): {error}"
                    ) from error
                report.task_retries += 1
                self._notify(
                    "on_task_retry", task.task_id,
                    f"{type(error).__name__}: {error}",
                )
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
                continue
            seconds = time.perf_counter() - started
            if self.validate is not None and not self.validate(result):
                raise SupervisorError(
                    f"task {task.task_id!r} produced an invalid result "
                    "in-process"
                )
            if side_observer is not None:
                side_observer.flush()
                self._notify(
                    "on_worker_telemetry",
                    {
                        "task_id": task.task_id,
                        "attempt": attempt,
                        "worker_id": (
                            "quarantine" if quarantined else "serial"
                        ),
                        "final": True,
                        "seconds": seconds,
                        "metrics": side_observer.metrics.to_dict(),
                        "spans": [
                            span.to_dict()
                            for span in side_observer.tracer.spans
                        ],
                    },
                    True,
                )
            self._complete(task, result, attempt, seconds, report,
                           quarantined=quarantined)
            return

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    def _complete(
        self,
        task: Task,
        result: Any,
        attempt: int,
        seconds: float,
        report: SupervisorReport,
        quarantined: bool,
    ) -> None:
        report.outcomes[task.task_id] = TaskOutcome(
            task_id=task.task_id,
            result=result,
            attempts=attempt,
            seconds=seconds,
            quarantined=quarantined,
        )
        if self.ledger is not None:
            try:
                self.ledger.record(task.task_id, result)
            except OSError as error:
                if not terminal_io_error(error):
                    raise
                # The disk is full or read-only; the results themselves
                # live in memory, so finish the run without the ledger
                # (losing only partition-level resume for this run).
                self.ledger = None
                report.ledger_disabled = True
                warnings.warn(
                    f"shard ledger disabled: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                # (retry_io's on_giveup already counted the I/O error.)
                self._notify("on_degradation", "ledger-off")
        self._notify(
            "on_task_done", task.task_id, seconds, attempt, quarantined
        )

    def _notify(self, hook: str, *args) -> None:
        if self.observer.enabled:
            getattr(self.observer, hook)(*args)
