"""Continuous mining: crash-safe delta ingestion.

The package has two layers:

- :mod:`repro.live.wal` — the durable write-ahead delta log
  (atomic-commit segments, monotonic sequence discipline, SHA-256
  chain fingerprint), the only durable state;
- :mod:`repro.live.miner` — :class:`LiveMiner`, the long-lived miner
  that re-mines the rows so far after every committed batch, so its
  rule set is a one-shot mine's of the concatenated data.

The service-facing session (applier thread, backpressure) lives in
:mod:`repro.service.live`.
"""

from repro.live.miner import DeltaReceipt, LiveMiner
from repro.live.wal import (
    AppendResult, DeltaLog, DeltaLogError, DeltaMismatch, OutOfOrderDelta,
)

__all__ = [
    "AppendResult",
    "DeltaLog",
    "DeltaLogError",
    "DeltaMismatch",
    "DeltaReceipt",
    "LiveMiner",
    "OutOfOrderDelta",
]
