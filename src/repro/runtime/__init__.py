"""The resilient streaming runtime: fault tolerance for long scans.

The paper proves the mining *algorithms* exact; this package keeps the
*runs* exact in the presence of operational faults:

- :mod:`repro.runtime.checkpoint` — persist pass-1 state (``ones[]``
  counts + spill-bucket manifest with checksums) so an interrupted
  two-pass run resumes at pass 2 instead of rescanning, with atomic
  writes, staleness and corruption detection.
- :mod:`repro.runtime.validation` — ``strict`` / ``skip`` / ``clamp``
  policies for malformed input rows, with line-numbered diagnostics.
- :mod:`repro.runtime.guards` — a disk-space preflight,
  retry-with-backoff for transient spill I/O, and
  SIGTERM-to-``KeyboardInterrupt`` unwinding.  (A memory budget is no
  runtime object: ``memory_budget=N`` is the bitmap switch's
  ``hard_budget_bytes``, which hands a scan over to the DMC-bitmap
  tail instead of OOM-ing.)
- :mod:`repro.runtime.storage` — the injectable durable-I/O layer
  every checkpoint, spill bucket and journal write goes through:
  fsync-then-rename-then-fsync-dir discipline, errno classification
  (``ENOSPC``-class faults surface as :class:`StorageFull` and trigger
  degradation instead of retries), :func:`degrade`, the one step that
  records a rung of the degradation ladder (:data:`LADDER`), and the
  :class:`FaultyStorage` test double that counts, crashes
  (:class:`SimulatedCrash`) and injects errno failures — the one
  fault harness the test suite proves the above with.
- :mod:`repro.runtime.crashpoints` — ALICE-style crash-point
  enumeration built on that op counting: crash a workload at every
  storage operation, recover, and demand the exact rule set each time.

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
from repro.runtime.guards import (
    ensure_disk_space,
    estimate_spill_bytes,
    graceful_interrupts,
    retry_io,
)
from repro.runtime.storage import (
    LOCAL_STORAGE,
    TERMINAL_ERRNOS,
    FaultyStorage,
    LocalStorage,
    SimulatedCrash,
    Storage,
    StorageFault,
    StorageFull,
    degrade,
    io_error_kind,
    terminal_io_error,
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
    "FaultyStorage",
    "LOCAL_STORAGE",
    "LocalStorage",
    "Pass1Checkpoint",
    "RowValidationError",
    "RowValidator",
    "SimulatedCrash",
    "Storage",
    "StorageFault",
    "StorageFull",
    "TERMINAL_ERRNOS",
    "VALIDATION_MODES",
    "count_storage_ops",
    "degrade",
    "ensure_disk_space",
    "enumerate_crash_points",
    "estimate_spill_bytes",
    "graceful_interrupts",
    "io_error_kind",
    "retry_io",
    "source_fingerprint",
    "terminal_io_error",
]
