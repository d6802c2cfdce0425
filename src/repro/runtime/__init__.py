"""The resilient streaming runtime: fault tolerance for long scans.

The paper proves the mining *algorithms* exact; this package keeps the
*runs* exact in the presence of operational faults:

- :mod:`repro.runtime.checkpoint` — persist pass-1 state (``ones[]``
  counts + spill-bucket manifest with checksums) so an interrupted
  two-pass run resumes at pass 2 instead of rescanning, with atomic
  writes, staleness and corruption detection.
- :mod:`repro.runtime.validation` — ``strict`` / ``skip`` / ``clamp``
  policies for malformed input rows, with line-numbered diagnostics.
- :mod:`repro.runtime.guards` — a memory-budget watchdog that degrades
  to the DMC-bitmap tail or the partitioned algorithm instead of
  OOM-ing, and retry-with-backoff for transient spill I/O.
- :mod:`repro.runtime.faults` — a deterministic fault-injection
  harness used by the test suite to prove the above (a run killed
  mid-pass-2 resumes to the byte-identical rule set).
- :mod:`repro.runtime.supervisor` — the supervised parallel runtime
  under the partitioned engines: spawn workers with heartbeat hang
  detection, per-task timeout/retry, respawn of dead workers,
  quarantine with serial re-run (exactness preserved), and a shard
  ledger so a killed supervisor resumes with only unfinished
  partitions.
- :mod:`repro.runtime.storage` — the injectable durable-I/O layer
  every checkpoint, spill bucket and ledger write goes through:
  fsync-then-rename-then-fsync-dir discipline, errno classification
  (``ENOSPC``-class faults surface as :class:`StorageFull` and trigger
  degradation instead of retries), and the :class:`FaultyStorage` test
  double that counts, crashes and injects errno failures.
- :mod:`repro.runtime.crashpoints` — ALICE-style crash-point
  enumeration built on that op counting: crash a workload at every
  storage operation, recover, and demand the exact rule set each time.
- :mod:`repro.runtime.transport` — the spawn pool the supervisor runs
  its tasks on: per-worker task queues and result pipes, heartbeat
  hang detection, crash respawn.

See :mod:`repro.matrix.stream` for the pipelines these wrap, and the
"Fault tolerance & recovery" / "Durability & degraded modes" sections
of USAGE.md for the operator view.
"""

from repro.runtime.crashpoints import (
    CrashPointReport,
    CrashPointResult,
    count_storage_ops,
    enumerate_crash_points,
)
from repro.runtime.checkpoint import (
    CheckpointCorrupted,
    CheckpointError,
    CheckpointStale,
    CheckpointStore,
    Pass1Checkpoint,
    source_fingerprint,
)
from repro.runtime.faults import (
    Fault,
    FaultPlan,
    SimulatedCrash,
    TransientIOError,
    WorkerFault,
    WorkerFaultPlan,
)
from repro.runtime.guards import (
    MemoryBudgetExceeded,
    MemoryGuard,
    ensure_disk_space,
    estimate_spill_bytes,
    mine_with_memory_budget,
    retry_io,
)
from repro.runtime.storage import (
    LOCAL_STORAGE,
    TERMINAL_ERRNOS,
    FaultyStorage,
    Lease,
    LeaseFenced,
    LocalStorage,
    Storage,
    StorageFault,
    StorageFull,
    acquire_lease,
    io_error_kind,
    load_lease,
    terminal_io_error,
    verify_lease,
)
from repro.runtime.supervisor import (
    LedgerFenced,
    ShardLedger,
    Supervisor,
    SupervisorError,
    SupervisorReport,
    Task,
    TaskOutcome,
    graceful_interrupts,
)
from repro.runtime.validation import (
    VALIDATION_MODES,
    RowValidationError,
    RowValidator,
)

__all__ = [
    "CheckpointCorrupted",
    "CheckpointError",
    "CheckpointStale",
    "CheckpointStore",
    "CrashPointReport",
    "CrashPointResult",
    "Fault",
    "FaultPlan",
    "FaultyStorage",
    "LOCAL_STORAGE",
    "Lease",
    "LeaseFenced",
    "LedgerFenced",
    "LocalStorage",
    "MemoryBudgetExceeded",
    "MemoryGuard",
    "Pass1Checkpoint",
    "RowValidationError",
    "RowValidator",
    "ShardLedger",
    "SimulatedCrash",
    "Storage",
    "StorageFault",
    "StorageFull",
    "Supervisor",
    "SupervisorError",
    "SupervisorReport",
    "TERMINAL_ERRNOS",
    "Task",
    "TaskOutcome",
    "TransientIOError",
    "VALIDATION_MODES",
    "WorkerFault",
    "WorkerFaultPlan",
    "acquire_lease",
    "count_storage_ops",
    "ensure_disk_space",
    "enumerate_crash_points",
    "estimate_spill_bytes",
    "graceful_interrupts",
    "io_error_kind",
    "load_lease",
    "mine_with_memory_budget",
    "retry_io",
    "source_fingerprint",
    "terminal_io_error",
    "verify_lease",
]
