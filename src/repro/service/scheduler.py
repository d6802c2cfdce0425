"""The job scheduler: queued specs → mining runs on worker slots.

The scheduler multiplexes admitted jobs onto a small pool of worker
threads (*slots*).  Each slot takes the oldest queued job whose tenant
is under its ``max_concurrent`` quota, durably transitions it to
``running``, executes the mining run, commits the result
first-writer-wins, and durably transitions the terminal state.  The
index write always precedes the side effect it announces, so the
restart recovery of :meth:`repro.service.jobs.JobIndex.recover` can
always tell where a crash landed.

Failure classification (:func:`transient_failure`):

- a broken process pool (a partitioned run's worker died) or a
  non-terminal ``OSError`` is retried with the shared exponential
  backoff of :func:`repro.runtime.guards.backoff_delay`, up to the
  spec's ``max_attempts``;
- everything else — bad data (:class:`~repro.service.jobs.
  JobDataError`), disk full, engine bugs — fails the job permanently;
- a per-job wall-clock timeout and cooperative cancellation are
  injected through the observer protocol: :class:`CancelWatch` rides
  the engine's existing progress hooks, so a cancel lands at the next
  phase/row/bucket boundary without any new engine plumbing.

``n_slots=0`` turns the scheduler synchronous: nothing runs until
:meth:`Scheduler.run_until_idle` drains the queue in the calling
thread.  The crash-point tests live in that mode — one thread, one
deterministic schedule of durable operations.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.observe.progress import ProgressObserver
from repro.observe.run import RunObserver
from repro.observe.tracer import Tracer
from repro.runtime.guards import backoff_delay
from repro.runtime.storage import Storage, terminal_io_error
from repro.service.jobs import (
    CANCELLED, DONE, FAILED, QUEUED, RUNNING,
    JobIndex, JobRecord,
)
from repro.service.quotas import QuotaPolicy

#: Backoff ceiling between retry attempts, seconds.
MAX_RETRY_DELAY = 30.0


def transient_failure(error: BaseException) -> bool:
    """True when a fresh attempt may cure the run that raised ``error``.

    A :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
    of the partitioned engine died — e.g. the host was briefly out of
    memory) and a non-terminal ``OSError`` (``EIO``/``EAGAIN`` class)
    are transient.  Terminal storage faults (disk full, read-only) are
    not: a retry cannot change the outcome.
    """
    if isinstance(error, BrokenProcessPool):
        return True
    return isinstance(error, OSError) and not terminal_io_error(error)


class JobCancelled(Exception):
    """The run was interrupted by a cancel (or a drain deadline)."""


class JobTimeout(Exception):
    """The run exceeded its spec's ``timeout_seconds``."""


class CancelWatch(ProgressObserver):
    """An observer that turns progress hooks into cancellation points.

    The engines already call these hooks at every natural boundary
    (each phase, each second-scan row, each spill bucket, each curve
    sample); raising from them unwinds the run through the
    engine's normal exception path.  ``deadline`` is an absolute
    ``time.monotonic()`` instant enforcing the per-job timeout.
    """

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.cancelled = threading.Event()
        self.deadline = deadline
        #: Set by a drain that interrupts the job: the cancel should
        #: re-queue, not kill, because the service intends to finish
        #: the job after the restart.
        self.requeue = False

    def cancel(self, requeue: bool = False) -> None:
        if requeue:
            self.requeue = True
        self.cancelled.set()

    def check(self) -> None:
        if self.cancelled.is_set():
            raise JobCancelled()
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise JobTimeout()

    # Every hook the engines call from their loops is a cancel point.
    def on_phase_start(self, name: str) -> None:
        self.check()

    def on_row(self, position, total, entries, memory_bytes, scan="") -> None:
        self.check()

    def on_curve_sample(
        self, rows_scanned, live_candidates, cumulative_misses,
        rules_emitted, scan="",
    ) -> None:
        self.check()

    def on_bucket(self, name: str, rows: int) -> None:
        self.check()


def execute_mining_job(
    record: JobRecord,
    workdir: str,
    observer: ProgressObserver,
    storage: Optional[Storage] = None,
    default_memory_budget: Optional[int] = None,
) -> Tuple[str, int]:
    """Run one job's mining run; returns ``(result_json, n_rules)``.

    The default executor of :class:`Scheduler` — everything it needs
    is in the record, so tests substitute their own executors freely.
    """
    import repro
    from repro.mining.export import rules_to_json

    spec = record.spec
    data = spec.load_data()
    kwargs = spec.mining_kwargs(
        workdir, default_memory_budget=default_memory_budget
    )
    result = repro.mine(
        data,
        observer=observer,
        storage=storage,
        run_id=record.job_id,
        **kwargs,
    )
    text = rules_to_json(
        result.rules, vocabulary=result.vocabulary, stats=result.stats
    )
    return text, len(result.rules)


class Scheduler:
    """Multiplex queued jobs onto ``n_slots`` worker threads.

    ``on_event(kind, fields)`` is the service's journal/metrics tap —
    called (never raising into the scheduler) for ``job-state`` and
    ``job-retry`` moments.
    """

    def __init__(
        self,
        index: JobIndex,
        policy: Optional[QuotaPolicy] = None,
        n_slots: int = 2,
        storage: Optional[Storage] = None,
        executor: Callable[..., Tuple[str, int]] = execute_mining_job,
        default_memory_budget: Optional[int] = None,
        default_timeout: Optional[float] = None,
        retry_base_delay: float = 0.5,
        retry_jitter: float = 0.5,
        retry_rng: Optional[random.Random] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> None:
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        if not 0.0 <= retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        self.index = index
        self.policy = policy if policy is not None else QuotaPolicy()
        self.n_slots = n_slots
        self.storage = storage
        self.executor = executor
        self.default_memory_budget = default_memory_budget
        self.default_timeout = default_timeout
        self.retry_base_delay = retry_base_delay
        self.retry_jitter = retry_jitter
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self._on_event = on_event
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: Deque[str] = deque()
        self._queued: Set[str] = set()
        self._running: Dict[str, CancelWatch] = {}
        self._tenant_running: Dict[str, int] = {}
        self._draining = False
        self._stopped = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-slot-{slot}",
                daemon=True,
            )
            for slot in range(n_slots)
        ]
        for thread in self._threads:
            thread.start()

    # -- events --------------------------------------------------------

    def _event(self, kind: str, **fields) -> None:
        if self._on_event is None:
            return
        try:
            self._on_event(kind, fields)
        except Exception:
            pass  # telemetry must never take down the scheduler

    # -- queue management ----------------------------------------------

    def enqueue(self, job_id: str) -> None:
        """Make a queued job eligible to run (idempotent)."""
        with self._wake:
            if job_id in self._queued or job_id in self._running:
                return
            self._queue.append(job_id)
            self._queued.add(job_id)
            self._wake.notify()

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def running_count(self) -> int:
        with self._lock:
            return len(self._running)

    def idle(self) -> bool:
        with self._lock:
            return not self._queue and not self._running

    def _pick_locked(self) -> Optional[str]:
        """Reserve the oldest queued job whose tenant has concurrency
        headroom.  The reservation (the job's cancel watch and its
        tenant's running count) happens here, under the lock, so two
        slots can never both pick past the same tenant's
        ``max_concurrent``."""
        for _ in range(len(self._queue)):
            job_id = self._queue.popleft()
            record = self.index.get(job_id)
            if record is None or record.state != QUEUED:
                self._queued.discard(job_id)  # cancelled while queued
                continue
            if self.policy.may_start(
                record.tenant, self._tenant_running.get(record.tenant, 0)
            ):
                self._queued.discard(job_id)
                timeout = record.spec.timeout_seconds
                if timeout is None:
                    timeout = self.default_timeout
                self._running[job_id] = CancelWatch(
                    deadline=(
                        None if timeout is None
                        else time.monotonic() + timeout
                    )
                )
                self._tenant_running[record.tenant] = (
                    self._tenant_running.get(record.tenant, 0) + 1
                )
                return job_id
            self._queue.append(job_id)  # saturated tenant: rotate
        return None

    def _release_locked(self, job_id: str, tenant: str) -> None:
        self._running.pop(job_id, None)
        count = self._tenant_running.get(tenant, 1) - 1
        if count > 0:
            self._tenant_running[tenant] = count
        else:
            self._tenant_running.pop(tenant, None)
        self._wake.notify_all()

    # -- cancellation and drain ----------------------------------------

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns its (possibly already terminal) state.

        A queued job is durably cancelled here; a running job gets its
        watch flagged and reaches ``cancelled`` at the next progress
        hook.  ``None`` for an unknown job.
        """
        record = self.index.get(job_id)
        if record is None:
            return None
        with self._wake:
            watch = self._running.get(job_id)
            if watch is not None:
                watch.cancel()
                return RUNNING  # will transition at the next hook
        if record.state == QUEUED:
            updated = self.index.transition(
                job_id, CANCELLED, note="cancelled while queued"
            )
            self._event("job-state", job_id=job_id, state=updated.state)
            return updated.state
        return record.state

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop starting jobs and wait for the running ones to finish.

        Queued jobs stay durably queued — the next boot re-queues them.
        When ``timeout`` expires, still-running jobs are interrupted
        with a *requeue* cancel (they go back to ``queued``, attempts
        intact) and the method returns False; True means everything in
        flight completed.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._wake:
            self._draining = True
            self._wake.notify_all()
        while True:
            with self._lock:
                running = dict(self._running)
            if not running:
                return True
            if deadline is not None and time.monotonic() > deadline:
                for watch in running.values():
                    watch.cancel(requeue=True)
                while not self.idle():
                    time.sleep(0.02)
                return False
            time.sleep(0.02)

    def close(self) -> None:
        """Stop the worker threads (does not wait for queued jobs)."""
        with self._wake:
            self._draining = True
            self._stopped = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- execution -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                job_id = None
                while not self._stopped and not self._draining:
                    job_id = self._pick_locked()
                    if job_id is not None:
                        break
                    self._wake.wait(timeout=0.2)
                if job_id is None:
                    return
            self._execute(job_id)

    def run_until_idle(self) -> None:
        """Synchronous mode (``n_slots=0``): drain the queue in the
        calling thread, one job at a time, deterministically FIFO."""
        while True:
            with self._wake:
                job_id = self._pick_locked()
            if job_id is None:
                return
            self._execute(job_id)

    def _execute(self, job_id: str) -> None:
        """Run one job reserved by :meth:`_pick_locked` (which already
        registered its cancel watch and tenant accounting)."""
        with self._lock:
            watch = self._running[job_id]
        record = self.index.get(job_id)
        retry_delay: Optional[float] = None
        try:
            if record is None or record.state != QUEUED:
                return
            if self.index.has_result(job_id):
                # A previous life committed the result but died before
                # the index caught up; finish the bookkeeping, don't
                # re-mine.
                self._finish(job_id, DONE, note="result already committed")
                return
            attempt = record.attempts + 1
            running = self.index.transition(
                job_id, RUNNING,
                note=f"attempt {attempt}", attempts=attempt,
            )
            self._event(
                "job-state", job_id=job_id, state=RUNNING, attempt=attempt
            )
            # Every attempt gets a fresh tracer carrying the request's
            # trace_id, seeded from the durable per-run archive so span
            # trees from earlier attempts (and earlier process lives)
            # stay in the tree.  The cancel watch rides along as the
            # observer's progress sink, keeping every engine hook a
            # cancellation point.
            tracer = self._attempt_tracer(record)
            observer = RunObserver(
                tracer=tracer, progress=watch, run_id=job_id
            )
            span = None
            try:
                try:
                    with tracer.span(
                        "attempt",
                        job_id=job_id,
                        attempt=attempt,
                        trace_id=tracer.trace_id,
                    ) as span:
                        text, n_rules = self.executor(
                            running,
                            self.index.job_workdir(job_id),
                            observer,
                            storage=self.storage,
                            default_memory_budget=self.default_memory_budget,
                        )
                except JobCancelled:
                    if span is not None:
                        span.attributes.update(
                            failed=True, failed_reason="cancelled"
                        )
                    self._finish_cancel(job_id, watch)
                    return
                except JobTimeout:
                    if span is not None:
                        span.attributes.update(
                            failed=True, failed_reason="timeout"
                        )
                    self._finish(
                        job_id, FAILED,
                        note="timed out",
                        error="exceeded the job's wall-clock timeout",
                    )
                    return
                except Exception as error:  # noqa: BLE001 — classified below
                    if span is not None:
                        span.attributes.update(
                            failed=True,
                            failed_reason=f"{type(error).__name__}: {error}",
                        )
                    retry_delay = self._finish_failure(
                        job_id, record, attempt, error
                    )
                    return
            finally:
                self._archive_trace(job_id, tracer)
            created = self.index.commit_result(job_id, text)
            self._finish(
                job_id, DONE,
                note=(
                    "result committed"
                    if created
                    else "duplicate result discarded (first writer won)"
                ),
                rules=n_rules,
            )
        finally:
            with self._wake:
                self._release_locked(
                    job_id, record.tenant if record is not None else ""
                )
            # Terminal-state events fire before the slot is released, so
            # gauges sampled from them still count this job as running;
            # this event lets the service refresh them afterwards.
            self._event("job-released", job_id=job_id)
            if retry_delay is not None:
                # Job is back in `queued` on disk; wait out the backoff
                # before making it runnable again.  The slot is free —
                # the job is no longer counted as running.
                if retry_delay > 0:
                    time.sleep(retry_delay)
                self.enqueue(job_id)

    def _attempt_tracer(self, record: JobRecord) -> Tracer:
        """A tracer for one attempt, seeded from the run's trace archive.

        The archive accumulates one top-level ``attempt`` span tree per
        attempt; rebuilding the tracer from it before each run means a
        retry (or a restart in a new process) appends to the same tree
        instead of starting over.  The trace_id is the submitting
        request's identity when the spec carries one, else the job id.
        """
        trace_id = record.spec.trace_id or record.job_id
        archived = self.index.read_trace(record.job_id)
        if archived:
            tracer = Tracer.from_dict(archived)
        else:
            tracer = Tracer()
        tracer.trace_id = trace_id
        return tracer

    def _archive_trace(self, job_id: str, tracer: Tracer) -> None:
        """Persist the accumulated span forest; never fails the job."""
        try:
            document = tracer.to_dict()
            document["job_id"] = job_id
            self.index.write_trace(job_id, document)
        except OSError:
            pass  # tracing is best-effort; the run's outcome stands

    def _finish(self, job_id: str, state: str, note: str,
                error: Optional[str] = None,
                rules: Optional[int] = None) -> None:
        updated = self.index.transition(
            job_id, state, note=note, error=error, rules=rules
        )
        self._event("job-state", job_id=job_id, state=updated.state,
                    error=error, rules=rules)

    def _finish_cancel(self, job_id: str, watch: CancelWatch) -> None:
        if watch.requeue:
            # Drain interrupted the run: back to the durable queue, to
            # be resumed (checkpoints intact) next boot.
            self._finish(job_id, QUEUED, note="requeued by drain")
        else:
            self._finish(job_id, CANCELLED, note="cancelled while running")

    def retry_delay(self, attempt: int) -> float:
        """The wait before re-running attempt ``attempt + 1``.

        Exponential backoff capped at :data:`MAX_RETRY_DELAY`, then
        jittered *downward* by up to ``retry_jitter`` of itself: jobs
        that failed simultaneously (a shared pool crash takes a whole
        batch down at once) spread over ``[delay * (1 - jitter),
        delay]`` instead of hammering the slots again in lockstep.
        """
        delay = min(
            backoff_delay(attempt - 1, self.retry_base_delay),
            MAX_RETRY_DELAY,
        )
        return delay * (1.0 - self.retry_jitter * self._retry_rng.random())

    def _finish_failure(
        self, job_id: str, record: JobRecord, attempt: int,
        error: BaseException,
    ) -> Optional[float]:
        """Classify a run failure: transient → durable re-queue, with
        the backoff delay returned for the caller to wait out; anything
        else → permanent failure (returns None)."""
        if transient_failure(error) and attempt < record.spec.max_attempts:
            self._finish(
                job_id, QUEUED,
                note=f"retrying after attempt {attempt}: {error}",
            )
            self._event(
                "job-retry", job_id=job_id, attempt=attempt,
                reason=str(error),
            )
            return self.retry_delay(attempt)
        self._finish(
            job_id, FAILED,
            note=f"failed on attempt {attempt}",
            error=f"{type(error).__name__}: {error}",
        )
        return None
