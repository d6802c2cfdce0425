"""Job specs and the durable job index of the mining service.

A *job* is one declarative, fully re-runnable mining run — the
one-config-per-run pattern: everything needed to produce the job's
rule set (data reference, task, threshold, engine knobs) lives in the
:class:`JobSpec` JSON document, so replaying the spec after a crash,
on another host, or next year mines the identical rules.

The :class:`JobIndex` is the service's source of truth and its crash
story.  Every job is one file under ``jobs/`` holding the current
:class:`JobRecord`; every state transition rewrites that file through
:meth:`repro.runtime.storage.Storage.atomic_write_text` (write-temp +
fsync + atomic rename + parent-dir fsync — the checkpoint
discipline), so a ``kill -9`` at any instruction leaves either the
previous state or the next one, never a torn record.  Results are
published under ``results/`` with :meth:`~repro.runtime.storage.
Storage.create_exclusive_text` — a first-writer-wins commit — so a
recovered job re-running
concurrently with a straggler can never clobber or duplicate a
completed result.

:meth:`JobIndex.recover` is the restart path: rescan ``jobs/``, and
for every job the dead process left ``running``, either promote it to
``done`` (its result file was already committed — the crash landed
between the commit and the index update) or put it back in ``queued``
with its attempt count intact.  Queued jobs are re-queued as-is;
terminal jobs are untouched.  Because specs are declarative and the
engines deterministic, a re-queued job's re-run produces the identical
rule set — and streaming jobs that were mining with a checkpoint
resume mid-run through the existing machinery, since their work
directories are derived from the job id and therefore stable across
restarts.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.runtime.storage import LOCAL_STORAGE, Storage

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: Keys a job-spec document may carry; anything else is rejected so a
#: typo'd knob fails the submit instead of silently mining defaults.
SPEC_KEYS = frozenset(
    (
        "job_id", "tenant", "task", "threshold", "data", "engine",
        "n_partitions", "n_workers", "timeout_seconds", "max_attempts",
        "memory_budget", "kind", "trace_id",
    )
)

#: Keys older servers persisted with jobs (the knobs of a retired
#: supervised worker pool, and the retired vector block size).
#: Reloading a stored record drops them, so those jobs survive an
#: upgrade; a submit still rejects them.
RETIRED_SPEC_KEYS = frozenset(
    ("task_timeout", "task_retries", "vector_block_rows")
)

#: Job kinds: ``batch`` runs once through the scheduler; ``live``
#: opens a continuous-mining session fed by ``POST /jobs/<id>/deltas``.
JOB_KINDS = ("batch", "live")

#: Keys the ``data`` sub-document may carry (exactly one data source).
DATA_KEYS = frozenset(("transactions", "path", "dataset", "scale", "seed"))


def new_job_id() -> str:
    """A fresh, URL-safe job identifier."""
    return "job-" + uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class JobSpec:
    """One declarative mining job: the JSON document of ``POST /jobs``.

    ``data`` names exactly one source:

    - ``{"transactions": [[...], ...]}`` — inline label transactions
      (stored verbatim in the spec, so the job is self-contained);
    - ``{"path": "file.txt"}`` — a transactions file readable by the
      service host;
    - ``{"dataset": "News", "scale": 0.5, "seed": 0}`` — a registry
      data set regenerated deterministically from its parameters.

    The remaining fields mirror :class:`repro.api.MiningConfig`
    (``engine``/``n_partitions``/``n_workers``/...) plus the
    service-level knobs: ``timeout_seconds`` (per-job wall-clock
    limit), ``max_attempts`` (attempts before the job fails for good)
    and ``memory_budget`` (per-job counter-array budget; the scan
    degrades to the DMC-bitmap tail instead of OOMing the host).
    """

    task: str
    threshold: object
    data: Dict[str, object]
    tenant: str = "default"
    job_id: str = field(default_factory=new_job_id)
    engine: str = "auto"
    n_partitions: int = 4
    n_workers: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_attempts: int = 3
    memory_budget: Optional[int] = None
    #: ``batch`` (default) or ``live`` — a live job is a long-running
    #: continuous-mining session, never scheduled as a one-shot run.
    kind: str = "batch"
    #: The originating request's identity (minted at the HTTP edge or
    #: supplied by the client); every span of every attempt, worker
    #: and delta apply of this job carries it.
    trace_id: Optional[str] = None

    @classmethod
    def from_mapping(cls, document: Dict[str, object]) -> "JobSpec":
        """Parse and validate a job-spec document (``ValueError`` on
        anything malformed — the HTTP layer turns that into ``400``)."""
        if not isinstance(document, dict):
            raise ValueError("job spec must be a JSON object")
        unknown = set(document) - SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown job-spec keys: {sorted(unknown)} "
                f"(allowed: {sorted(SPEC_KEYS)})"
            )
        for key in ("task", "threshold", "data"):
            if key not in document:
                raise ValueError(f"job spec is missing {key!r}")
        data = document["data"]
        if not isinstance(data, dict):
            raise ValueError("data must be an object")
        unknown = set(data) - DATA_KEYS
        if unknown:
            raise ValueError(f"unknown data keys: {sorted(unknown)}")
        sources = [
            key for key in ("transactions", "path", "dataset") if key in data
        ]
        if len(sources) != 1:
            raise ValueError(
                "data must name exactly one of transactions/path/dataset"
            )
        tenant = document.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("tenant must be a non-empty string")
        job_id = document.get("job_id")
        if job_id is not None and (
            not isinstance(job_id, str)
            or not job_id
            or os.sep in job_id
            or job_id != os.path.basename(job_id)
            or job_id.startswith(".")
        ):
            raise ValueError("job_id must be a plain file-name-safe string")
        trace_id = document.get("trace_id")
        if trace_id is not None and (
            not isinstance(trace_id, str) or not trace_id.strip()
        ):
            raise ValueError("trace_id must be a non-empty string")
        spec = cls(
            task=str(document["task"]),
            threshold=document["threshold"],
            data=dict(data),
            tenant=tenant,
            job_id=job_id if job_id is not None else new_job_id(),
            engine=str(document.get("engine", "auto")),
            n_partitions=int(document.get("n_partitions", 4)),
            n_workers=(
                None
                if document.get("n_workers") is None
                else int(document["n_workers"])  # type: ignore[arg-type]
            ),
            timeout_seconds=(
                None
                if document.get("timeout_seconds") is None
                else float(document["timeout_seconds"])  # type: ignore[arg-type]
            ),
            max_attempts=int(document.get("max_attempts", 3)),
            memory_budget=(
                None
                if document.get("memory_budget") is None
                else int(document["memory_budget"])  # type: ignore[arg-type]
            ),
            kind=str(document.get("kind", "batch")),
            trace_id=trace_id,
        )
        if spec.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {spec.kind!r} "
                f"(allowed: {list(JOB_KINDS)})"
            )
        if spec.kind == "live" and "transactions" not in spec.data:
            raise ValueError(
                "a live job needs inline data.transactions (its seed "
                "rows; an empty list is fine — deltas feed the rest)"
            )
        if spec.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if spec.timeout_seconds is not None and spec.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        # Fail config contradictions at submit time, not mine time:
        # building the MiningConfig runs its full validation.
        spec.mining_kwargs(workdir=None)
        return spec

    def to_mapping(self) -> Dict[str, object]:
        """The spec as a JSON-ready document (round-trips exactly)."""
        document: Dict[str, object] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "task": self.task,
            "threshold": self.threshold,
            "data": dict(self.data),
            "engine": self.engine,
            "n_partitions": self.n_partitions,
            "max_attempts": self.max_attempts,
            "kind": self.kind,
        }
        for key in (
            "n_workers", "timeout_seconds", "memory_budget", "trace_id",
        ):
            value = getattr(self, key)
            if value is not None:
                document[key] = value
        return document

    def rows_estimate(self) -> Optional[int]:
        """Declared/derivable row count, for the ``max_rows`` quota.

        Inline transactions are counted exactly; a file is counted by
        its newlines (one transaction per line); a registry data set's
        row count is unknown without generating it — ``None`` (the
        quota check admits unknowable sizes; the per-job memory budget
        still bounds the damage).
        """
        if "transactions" in self.data:
            transactions = self.data["transactions"]
            try:
                return len(transactions)  # type: ignore[arg-type]
            except TypeError:
                return None
        path = self.data.get("path")
        if isinstance(path, str):
            try:
                rows = 0
                with open(path, "rb") as handle:
                    for chunk in iter(lambda: handle.read(1 << 16), b""):
                        rows += chunk.count(b"\n")
                return rows
            except OSError:
                return None
        return None

    def load_data(self):
        """Materialize the data reference for :func:`repro.mine`.

        Raises :class:`JobDataError` when the reference cannot be
        resolved (missing file, unknown data set) — a permanent
        failure, never retried.
        """
        try:
            if "transactions" in self.data:
                from repro.matrix.binary_matrix import BinaryMatrix

                return BinaryMatrix.from_transactions(
                    self.data["transactions"]
                )
            if "path" in self.data:
                from repro.matrix.io import load_transactions
                from repro.matrix.stream import FileSource

                read = (
                    FileSource if self.engine == "stream" else load_transactions
                )
                return read(str(self.data["path"]))
            from repro.datasets.registry import DATASETS, load_dataset

            name = str(self.data["dataset"])
            if name not in DATASETS:
                raise ValueError(
                    f"unknown data set {name!r}; choose from: "
                    + ", ".join(DATASETS)
                )
            return load_dataset(
                name,
                scale=float(self.data.get("scale", 1.0)),
                seed=int(self.data.get("seed", 0)),
            )
        except JobDataError:
            raise
        except (OSError, ValueError, TypeError) as error:
            raise JobDataError(f"cannot load job data: {error}") from error

    def mining_kwargs(
        self,
        workdir: Optional[str],
        default_memory_budget: Optional[int] = None,
    ) -> Dict[str, object]:
        """The :func:`repro.mine` keyword arguments this spec encodes.

        ``workdir`` (the job's stable per-id scratch directory) seeds
        the checkpoint / spill paths, so a streaming re-run after a
        crash *resumes* through the existing checkpoint machinery
        instead of starting over.  ``None`` validates the spec without
        binding directories.
        """
        kwargs: Dict[str, object] = {
            "task": self.task,
            "threshold": self.threshold,
            "engine": self.engine,
            "n_partitions": self.n_partitions,
        }
        if self.n_workers is not None:
            kwargs["n_workers"] = self.n_workers
        budget = (
            self.memory_budget
            if self.memory_budget is not None
            else default_memory_budget
        )
        # A budget rides only on engine="auto": an explicit engine
        # mines exactly as the client configured it.
        if budget is not None and self.engine == "auto":
            kwargs["memory_budget"] = budget
        if workdir is not None and self.engine == "stream":
            kwargs["checkpoint_dir"] = os.path.join(workdir, "checkpoint")
            kwargs["spill_dir"] = os.path.join(workdir, "spill")
            kwargs["preflight_disk"] = True
        from repro.api import MiningConfig

        MiningConfig(**kwargs)  # reject contradictions at submit time
        return kwargs


class JobDataError(ValueError):
    """A job's data reference is unresolvable (permanent, not retried)."""


@dataclass
class JobRecord:
    """The durable state of one job — the content of its index file."""

    spec: JobSpec
    state: str = QUEUED
    attempts: int = 0
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    error: Optional[str] = None
    rules: Optional[int] = None
    #: ``[state, unix_ts, note]`` triples, every transition recorded.
    history: List[List[object]] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tenant(self) -> str:
        return self.spec.tenant

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_mapping(self) -> Dict[str, object]:
        return {
            "version": 1,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "error": self.error,
            "rules": self.rules,
            "history": [list(entry) for entry in self.history],
            "spec": self.spec.to_mapping(),
        }

    @classmethod
    def from_mapping(cls, document: Dict[str, object]) -> "JobRecord":
        spec_document = document["spec"]
        if isinstance(spec_document, dict):
            spec_document = {
                key: value
                for key, value in spec_document.items()
                if key not in RETIRED_SPEC_KEYS
            }
            if spec_document.get("engine") not in ("partitioned", "vector"):
                # Older servers accepted, then ignored, a worker count
                # here; a submit now refuses it (MiningConfig).
                spec_document.pop("n_workers", None)
        spec = JobSpec.from_mapping(spec_document)  # type: ignore[arg-type]
        record = cls(
            spec=spec,
            state=str(document["state"]),
            attempts=int(document.get("attempts", 0)),
            created_at=float(document.get("created_at", 0.0)),  # type: ignore[arg-type]
            updated_at=float(document.get("updated_at", 0.0)),  # type: ignore[arg-type]
            error=document.get("error"),  # type: ignore[arg-type]
            rules=document.get("rules"),  # type: ignore[arg-type]
            history=[
                list(entry)
                for entry in document.get("history", ())  # type: ignore[union-attr]
            ],
        )
        if record.state not in STATES:
            raise ValueError(f"unknown job state {record.state!r}")
        return record


@dataclass
class RecoveryReport:
    """What a restart found in the index and what it did about it."""

    #: Jobs promoted ``running`` → ``done`` (result already committed).
    completed: List[str] = field(default_factory=list)
    #: Jobs put back in the queue (``running`` → ``queued``).
    requeued: List[str] = field(default_factory=list)
    #: Jobs found already queued (re-admitted as-is).
    queued: List[str] = field(default_factory=list)
    #: Jobs in a terminal state (left untouched).
    terminal: List[str] = field(default_factory=list)
    #: Unparsable index files (skipped; named for the operator).
    corrupt: List[str] = field(default_factory=list)

    @property
    def runnable(self) -> List[str]:
        """Job ids the scheduler should (re-)enqueue, oldest first."""
        return self.queued + self.requeued


class JobIndex:
    """The durable, crash-consistent job table of one service instance.

    Layout under ``root``::

        jobs/<job_id>.json      one JobRecord, atomically rewritten
                                on every state transition
        results/<job_id>.json   the committed result document,
                                create-exclusive (first writer wins)
        traces/<job_id>.json    the per-run trace archive (the span
                                trees of every attempt, atomically
                                rewritten as attempts accumulate)
        work/<job_id>/          per-job scratch (checkpoint / spill),
                                stable across restarts

    Thread-safe; every mutation goes through the injected
    :class:`~repro.runtime.storage.Storage` so tests can count, crash
    and fault every durable operation.
    """

    def __init__(self, root: str, storage: Optional[Storage] = None) -> None:
        self.root = str(root)
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.results_dir = os.path.join(self.root, "results")
        self.traces_dir = os.path.join(self.root, "traces")
        self.work_dir = os.path.join(self.root, "work")
        for directory in (
            self.jobs_dir, self.results_dir, self.traces_dir, self.work_dir,
        ):
            self.storage.makedirs(directory)
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}

    # -- paths ---------------------------------------------------------

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, f"{job_id}.json")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.traces_dir, f"{job_id}.json")

    def job_workdir(self, job_id: str) -> str:
        return os.path.join(self.work_dir, job_id)

    # -- writes --------------------------------------------------------

    def _write(self, record: JobRecord) -> None:
        self.storage.atomic_write_text(
            self.job_path(record.job_id),
            json.dumps(record.to_mapping(), separators=(",", ":")),
        )

    def create(self, spec: JobSpec) -> JobRecord:
        """Admit a new job in ``queued`` (durable before it returns).

        Submitting an existing ``job_id`` is idempotent: the existing
        record is returned unchanged (the retry of a client whose ACK
        was lost must not double-run the job).
        """
        with self._lock:
            existing = self._records.get(spec.job_id)
            if existing is not None:
                return existing
            now = time.time()
            record = JobRecord(
                spec=spec,
                state=QUEUED,
                created_at=now,
                updated_at=now,
                history=[[QUEUED, now, "submitted"]],
            )
            self._write(record)
            self._records[spec.job_id] = record
            return record

    def transition(
        self,
        job_id: str,
        state: str,
        note: str = "",
        error: Optional[str] = None,
        rules: Optional[int] = None,
        attempts: Optional[int] = None,
    ) -> JobRecord:
        """Durably move a job to ``state``; returns the new record."""
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            current = self._records[job_id]
            now = time.time()
            updated = replace(current)
            updated.state = state
            updated.updated_at = now
            updated.error = error
            if rules is not None:
                updated.rules = rules
            if attempts is not None:
                updated.attempts = attempts
            updated.history = current.history + [[state, now, note]]
            self._write(updated)
            self._records[job_id] = updated
            return updated

    def commit_result(self, job_id: str, text: str) -> bool:
        """Publish a job's result, first writer wins.

        Returns True when this call created the result, False when a
        result already existed (the duplicate is discarded; the
        committed bytes are immutable either way).
        """
        return self.storage.create_exclusive_text(
            self.result_path(job_id), text
        )

    def write_trace(self, job_id: str, document: Dict[str, object]) -> None:
        """Atomically (re)write a job's trace archive.

        Unlike results the archive is *rewritten* as attempts
        accumulate — each rewrite carries every prior attempt's span
        tree plus the new one, so the file is always a complete trace
        of the job so far and a crash leaves the previous complete
        archive in place.
        """
        self.storage.atomic_write_text(
            self.trace_path(job_id),
            json.dumps(document, separators=(",", ":")),
        )

    def read_trace(self, job_id: str) -> Optional[Dict[str, object]]:
        """The job's trace archive, or None when no attempt ran yet."""
        path = self.trace_path(job_id)
        if not self.storage.exists(path):
            return None
        try:
            with self.storage.open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    # -- reads ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def all_records(self) -> List[JobRecord]:
        with self._lock:
            return sorted(
                self._records.values(), key=lambda r: (r.created_at, r.job_id)
            )

    def by_tenant(self, tenant: Optional[str] = None) -> List[JobRecord]:
        return [
            record
            for record in self.all_records()
            if tenant is None or record.tenant == tenant
        ]

    def counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """``state -> count`` (optionally for one tenant)."""
        counts = {state: 0 for state in STATES}
        for record in self.by_tenant(tenant):
            counts[record.state] += 1
        return counts

    def has_result(self, job_id: str) -> bool:
        return self.storage.exists(self.result_path(job_id))

    def read_result(self, job_id: str) -> str:
        with self.storage.open(
            self.result_path(job_id), "r", encoding="utf-8"
        ) as handle:
            return handle.read()

    # -- recovery ------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Load the index from disk, repairing what a crash left behind.

        Called once at service start.  Every repair is itself a durable
        transition, so a crash *during* recovery is recovered by the
        next recovery.
        """
        report = RecoveryReport()
        with self._lock:
            names = sorted(self.storage.listdir(self.jobs_dir))
            for name in names:
                if not name.endswith(".json"):
                    continue  # a .tmp orphan from a crashed write
                path = os.path.join(self.jobs_dir, name)
                try:
                    with self.storage.open(
                        path, "r", encoding="utf-8"
                    ) as handle:
                        record = JobRecord.from_mapping(json.load(handle))
                except (ValueError, KeyError, TypeError):
                    # atomic_write_text makes a torn record unreachable
                    # from our own writers; garbage means external
                    # scribbling.  Skip it loudly in the report.
                    report.corrupt.append(name)
                    continue
                self._records[record.job_id] = record
            for record in self.all_records():
                job_id = record.job_id
                if record.state == RUNNING:
                    if self.has_result(job_id):
                        # Crash landed between the result commit and
                        # the index update: finish the bookkeeping.
                        self.transition(
                            job_id, DONE,
                            note="recovered: result already committed",
                        )
                        report.completed.append(job_id)
                    else:
                        self.transition(
                            job_id, QUEUED,
                            note="recovered: re-queued after restart",
                        )
                        report.requeued.append(job_id)
                elif record.state == QUEUED:
                    report.queued.append(job_id)
                else:
                    report.terminal.append(job_id)
        return report
