"""Mining as a service: a durable job runtime over :func:`repro.mine`.

:class:`MiningService` turns the library into a long-running,
multi-tenant server: clients ``POST`` declarative job specs, the
service admits them against per-tenant quotas and host guards, a
scheduler multiplexes the admitted jobs onto worker slots, and every
state transition is durably journalled through the
:class:`~repro.runtime.storage.Storage` protocol so a ``kill -9`` at
any instant loses no job, duplicates no result, and changes no rule
of any recovered run — the determinism of the engines plus the
first-writer-wins result commit make crash recovery *exact*, not
best-effort.

Composition (each piece usable alone; the crash-point tests run the
index + scheduler with no HTTP listener at all):

- :class:`~repro.service.jobs.JobSpec` / :class:`~repro.service.jobs.
  JobIndex` — the declarative spec and the crash-consistent state
  table (``jobs/``, ``results/``, ``work/`` under the state dir);
- :class:`~repro.service.quotas.QuotaPolicy` — per-tenant admission
  limits (submit-side ``max_queued``/``max_rows``, scheduler-side
  ``max_concurrent``);
- :class:`~repro.service.scheduler.Scheduler` — worker slots, per-job
  timeouts, retry-with-backoff on transient pool failures,
  cooperative cancel through the progress-observer protocol;
- :class:`~repro.service.server.ServiceServer` — the REST job API on
  top of the live-metrics listener.

Start one from the command line with ``python -m repro serve
--state-dir DIR``; SIGTERM drains gracefully (admission stops,
running jobs finish or are re-queued at the drain deadline, the
shutdown is journalled).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.live.wal import DeltaLogError
from repro.observe.journal import RunJournal
from repro.observe.metrics import MetricsRegistry
from repro.runtime.guards import ensure_disk_space
from repro.runtime.storage import (
    LOCAL_STORAGE, Storage, StorageFull,
)
from repro.service.jobs import (
    CANCELLED, DONE, FAILED, QUEUED, RUNNING, STATES, TERMINAL_STATES,
    JobDataError, JobIndex, JobRecord, JobSpec, RecoveryReport,
)
from repro.service.live import LiveSession
from repro.service.quotas import (
    AdmissionError, QuotaPolicy, TenantQuota,
)
from repro.service.scheduler import (
    CancelWatch, JobCancelled, JobTimeout, Scheduler, execute_mining_job,
)

__all__ = [
    "AdmissionError",
    "CancelWatch",
    "JobCancelled",
    "JobDataError",
    "JobIndex",
    "JobRecord",
    "JobSpec",
    "JobTimeout",
    "LiveSession",
    "MiningService",
    "QuotaPolicy",
    "RecoveryReport",
    "Scheduler",
    "TenantQuota",
    "execute_mining_job",
]

#: Name of the discovery file a serving instance writes to its state
#: dir (one line: the base URL) so tooling can find the listener.
URL_FILE = "service.url"

#: Name of the service journal inside the state dir.
JOURNAL_FILE = "service.jsonl"

#: Bucket bounds (seconds) for job-lifecycle latency histograms —
#: wider than the HTTP request buckets because a mining run is minutes
#: where a request is milliseconds.
JOB_SECONDS_BUCKETS = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 60.0, 300.0, 1800.0,
)


class MiningService:
    """One mining-service instance over a durable state directory.

    ``serve=True`` starts the HTTP job API immediately (``port=0``
    picks an ephemeral port, written to ``<state_dir>/service.url``);
    ``serve=False`` runs headless — submit through :meth:`submit`, as
    the crash-point and scheduler tests do.

    ``n_slots=0`` makes execution synchronous: nothing mines until
    :meth:`run_until_idle`.  ``min_free_bytes`` is the disk admission
    guard — a submit is refused with ``429`` while the state dir's
    filesystem has less headroom than this.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        storage: Optional[Storage] = None,
        policy: Optional[QuotaPolicy] = None,
        n_slots: int = 2,
        serve: bool = False,
        port: int = 0,
        host: str = "127.0.0.1",
        journal: bool = True,
        default_memory_budget: Optional[int] = None,
        default_timeout: Optional[float] = None,
        retry_base_delay: float = 0.5,
        min_free_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        max_live_backlog: int = 64,
    ) -> None:
        self.state_dir = str(state_dir)
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.policy = policy if policy is not None else QuotaPolicy()
        self.min_free_bytes = min_free_bytes
        self.max_live_backlog = max_live_backlog
        self.live_sessions: Dict[str, LiveSession] = {}
        self._live_lock = threading.RLock()
        self.started_at = time.time()
        self._draining = False
        self._closed = False
        self._stop = threading.Event()
        self.registry = (
            registry if registry is not None
            else MetricsRegistry(prefix="dmc")
        )
        p = self.registry.prefix
        self._m_submitted = self.registry.counter(
            f"{p}_service_jobs_submitted_total",
            "Jobs admitted by the service.",
        )
        self._m_queued = self.registry.gauge(
            f"{p}_service_jobs_queued", "Jobs currently queued."
        )
        self._m_running = self.registry.gauge(
            f"{p}_service_jobs_running", "Jobs currently running."
        )
        self.index = JobIndex(self.state_dir, storage=self.storage)
        self.journal: Optional[RunJournal] = None
        if journal:
            self.journal = RunJournal(
                os.path.join(self.state_dir, JOURNAL_FILE),
                run_id="service",
                storage=self.storage,
            )
        self.recovery: RecoveryReport = self.index.recover()
        self._journal_event(
            "service-start",
            recovered_completed=self.recovery.completed,
            recovered_requeued=self.recovery.requeued,
            recovered_queued=self.recovery.queued,
            corrupt=self.recovery.corrupt,
        )
        self.scheduler = Scheduler(
            self.index,
            policy=self.policy,
            n_slots=n_slots,
            storage=storage,  # None keeps mine()'s own default
            default_memory_budget=default_memory_budget,
            default_timeout=default_timeout,
            retry_base_delay=retry_base_delay,
            on_event=self._scheduler_event,
        )
        for job_id in self.recovery.runnable:
            record = self.index.get(job_id)
            if record is not None and record.spec.kind == "live":
                continue  # live jobs re-open as sessions, not runs
            self.scheduler.enqueue(job_id)
        # Re-open every non-terminal live session: the WAL replays
        # whatever the dead process had committed but not yet folded.
        for record in self.index.all_records():
            if record.spec.kind == "live" and not record.terminal:
                self._open_live_session(record, recovered=True)
        self.server = None
        if serve:
            from repro.service.server import ServiceServer

            self.server = ServiceServer(
                self.registry, self, port=port, host=host
            )
            self.storage.atomic_write_text(
                os.path.join(self.state_dir, URL_FILE),
                self.server.url + "\n",
            )

    # -- telemetry -----------------------------------------------------

    def _journal_event(self, event: str, **payload) -> None:
        if self.journal is not None:
            self.journal.emit(event, **payload)

    def _scheduler_event(self, kind: str, fields: dict) -> None:
        if kind == "job-released":
            self._update_gauges()  # gauge refresh only, not journalled
            return
        self._journal_event(kind, **fields)
        if kind == "job-state":
            state = fields.get("state")
            if state in TERMINAL_STATES:
                self.registry.counter(
                    f"{self.registry.prefix}_service_jobs_finished_total",
                    "Jobs reaching a terminal state.",
                    state=str(state),
                ).inc()
            self._observe_latency(fields.get("job_id"), state, fields)
        self._update_gauges()

    def _observe_latency(self, job_id, state, fields: dict) -> None:
        """Per-tenant job-lifecycle latency histograms.

        Queue wait is submit → the *first* running transition (a retry's
        wait is backoff, not queueing); end-to-end is submit → any
        terminal state.  Both are derived from the durable record's
        ``created_at``, so they survive restarts mid-job.
        """
        if job_id is None:
            return
        record = self.index.get(job_id)
        if record is None:
            return
        elapsed = max(0.0, time.time() - record.created_at)
        prefix = self.registry.prefix
        if state == RUNNING and fields.get("attempt", 1) == 1:
            self.registry.histogram(
                f"{prefix}_service_job_queue_wait_seconds",
                "Submit-to-first-run seconds, per tenant.",
                buckets=JOB_SECONDS_BUCKETS, tenant=record.tenant,
            ).observe(elapsed)
        elif state in TERMINAL_STATES:
            self.registry.histogram(
                f"{prefix}_service_job_end_to_end_seconds",
                "Submit-to-terminal-state seconds, per tenant.",
                buckets=JOB_SECONDS_BUCKETS, tenant=record.tenant,
            ).observe(elapsed)

    def _update_gauges(self) -> None:
        self._m_queued.set(self.scheduler.queue_depth())
        self._m_running.set(self.scheduler.running_count())

    # -- job lifecycle -------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def submit(self, document: Dict[str, object]) -> Tuple[JobRecord, bool]:
        """Admit one job spec; returns ``(record, created)``.

        ``created`` is False for an idempotent re-submit of an existing
        ``job_id``.  Raises :class:`ValueError` for a malformed spec
        and :class:`AdmissionError` for a refused one.
        """
        if self._draining:
            raise AdmissionError(
                "service is draining; not accepting jobs",
                status=503, kind="draining",
            )
        spec = JobSpec.from_mapping(document)
        existing = self.index.get(spec.job_id)
        if existing is not None:
            return existing, False
        counts = self.index.counts(spec.tenant)
        self.policy.admit(
            spec.tenant, queued=counts[QUEUED], rows=spec.rows_estimate()
        )
        if self.min_free_bytes is not None:
            try:
                ensure_disk_space(
                    self.state_dir, self.min_free_bytes,
                    storage=self.storage, headroom=1.0,
                )
            except StorageFull as full:
                raise AdmissionError(
                    f"host is out of disk headroom: {full}",
                    retry_after=30, kind="disk",
                ) from full
        record = self.index.create(spec)
        self._m_submitted.inc()
        self._journal_event(
            "job-submitted", job_id=record.job_id, tenant=record.tenant,
            task=spec.task, kind=spec.kind,
        )
        if spec.kind == "live":
            record = self._open_live_session(record, recovered=False)
        else:
            self.scheduler.enqueue(record.job_id)
        self._update_gauges()
        return record, True

    # -- live (continuous-mining) jobs ---------------------------------

    def _open_live_session(
        self, record: JobRecord, recovered: bool
    ) -> JobRecord:
        """Open (or re-open) the continuous session of a live job.

        The spec's inline transactions are committed as delta sequence
        1 every time — the WAL dedupes the re-open case — so client
        deltas always start at sequence 2 and a crash between record
        creation and the seed commit self-heals.
        """
        with self._live_lock:
            existing = self.live_sessions.get(record.job_id)
            if existing is not None:
                return record
            session = LiveSession(
                record.job_id,
                self.index.job_workdir(record.job_id),
                record.spec.task,
                record.spec.threshold,
                storage=self.storage,
                journal=self.journal,
                trace_id=record.spec.trace_id,
                max_backlog=self.max_live_backlog,
            )
            session.submit_delta(
                1, list(record.spec.data.get("transactions") or [])
            )
            self.live_sessions[record.job_id] = session
        if record.state != RUNNING:
            record = self.index.transition(
                record.job_id, RUNNING,
                note=(
                    "live session re-opened after restart"
                    if recovered else "live session opened"
                ),
            )
        # No service-level journal event here: the miner itself emits
        # "live-open" (with the job_id attached) when it recovers.
        return record

    def live_session(self, job_id: str) -> Optional[LiveSession]:
        with self._live_lock:
            return self.live_sessions.get(job_id)

    def submit_delta(
        self, job_id: str, document: Dict[str, object]
    ):
        """Ingest one delta batch into a live job.

        ``document``: ``{"seq": int, "rows": [[label, ...], ...],
        "wait": bool?}``.  Raises :class:`KeyError` for an unknown or
        non-live job, :class:`ValueError` subclasses for protocol
        violations, :class:`AdmissionError` for backpressure.
        """
        session = self.live_session(job_id)
        if session is None:
            record = self.index.get(job_id)
            if record is None:
                raise KeyError(f"no such job: {job_id}")
            if record.spec.kind != "live":
                raise DeltaLogError(
                    f"job {job_id} is a batch job; deltas need "
                    "\"kind\": \"live\""
                )
            raise DeltaLogError(
                f"live job {job_id} is {record.state}; its session "
                "is closed"
            )
        if not isinstance(document, dict):
            raise ValueError("delta must be a JSON object")
        unknown = set(document) - {"seq", "rows", "wait"}
        if unknown:
            raise ValueError(f"unknown delta keys: {sorted(unknown)}")
        if "seq" not in document or "rows" not in document:
            raise ValueError("delta needs \"seq\" and \"rows\"")
        seq = document["seq"]
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ValueError("seq must be an integer")
        rows = document["rows"]
        if not isinstance(rows, list):
            raise ValueError("rows must be a list of label lists")
        # No service-level journal event here: the miner itself emits
        # delta-commit / delta-applied with the job_id attached.
        return session.submit_delta(
            seq, rows, wait=bool(document.get("wait", False))
        )

    def close_live_session(
        self, job_id: str, state: str, note: str
    ) -> Optional[str]:
        with self._live_lock:
            session = self.live_sessions.pop(job_id, None)
        if session is None:
            return None
        session.close()
        self.index.transition(job_id, state, note=note)
        return state

    def reject_event(self, rejection: AdmissionError) -> None:
        """Record a refused submit (called by the HTTP layer)."""
        self.registry.counter(
            f"{self.registry.prefix}_service_jobs_rejected_total",
            "Submits refused by admission.",
            reason=rejection.kind,
        ).inc()
        self._journal_event(
            "job-rejected", reason=rejection.kind, detail=rejection.reason
        )

    def get_job(self, job_id: str) -> Optional[JobRecord]:
        return self.index.get(job_id)

    def list_jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        return self.index.by_tenant(tenant)

    def read_result(self, job_id: str) -> str:
        return self.index.read_result(job_id)

    def read_trace(self, job_id: str) -> Optional[dict]:
        """The job's archived span-tree document, or ``None``."""
        return self.index.read_trace(job_id)

    def cancel_job(self, job_id: str) -> Optional[str]:
        record = self.index.get(job_id)
        if record is not None and record.spec.kind == "live":
            state = self.close_live_session(
                job_id, CANCELLED, note="cancelled by client"
            )
        else:
            state = self.scheduler.cancel(job_id)
        if state is not None:
            self._journal_event("job-cancel", job_id=job_id, state=state)
            self._update_gauges()
        return state

    def run_until_idle(self) -> None:
        """Synchronous execution (``n_slots=0``); see the scheduler."""
        self.scheduler.run_until_idle()
        self._update_gauges()

    def health_summary(self) -> dict:
        counts = self.index.counts()
        return {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "uptime_seconds": time.time() - self.started_at,
            "jobs": counts,
            "queue_depth": self.scheduler.queue_depth(),
            "running": self.scheduler.running_count(),
        }

    # -- shutdown ------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown, phase 1: refuse new work, finish the rest.

        Running jobs get ``timeout`` seconds to complete; past it they
        are re-queued durably (attempts intact, checkpoints on disk)
        for the next boot.  Queued jobs stay queued.  Returns True when
        everything in flight completed inside the deadline.
        """
        self._draining = True
        self._journal_event("service-drain", timeout=timeout)
        completed = self.scheduler.drain(timeout=timeout)
        self._journal_event("service-drained", completed=completed)
        self._update_gauges()
        return completed

    def close(self) -> None:
        """Stop serving, stop the scheduler, journal the shutdown."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self.server is not None:
            self.server.close()
        # Live sessions snapshot their state and stop; the records
        # stay ``running`` on disk so the next boot re-opens them.
        with self._live_lock:
            sessions = list(self.live_sessions.values())
            self.live_sessions.clear()
        for session in sessions:
            session.close()
        self.scheduler.close()
        self._journal_event("service-stop", jobs=self.index.counts())
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def serve_forever(self, drain_timeout: Optional[float] = 30.0) -> None:
        """Block until SIGTERM/SIGINT, then drain and close.

        SIGTERM is the orchestrator's stop signal: admission stops
        immediately (503), running jobs get ``drain_timeout`` seconds,
        and the shutdown sequence is journalled before exit.
        """
        def _stop_signal(signum, frame):
            self._stop.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _stop_signal)
        try:
            while not self._stop.wait(timeout=0.2):
                pass
            self.drain(timeout=drain_timeout)
            self.close()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
