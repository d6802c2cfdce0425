"""Shared live status of an in-flight mining run.

The engine thread writes, the :class:`repro.observe.server
.MetricsServer` request threads read.  Every field is either written
atomically under the GIL (plain attribute assignment of an immutable
value) or guarded by the small lock — the status is a cheap
communication surface, not a metrics store (that is the
:class:`~repro.observe.metrics.MetricsRegistry`).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional


class LiveRunStatus:
    """What ``/healthz`` and ``/runs/<run_id>`` report mid-run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.started_at = time.time()
        self.started_monotonic = time.monotonic()
        self.phase: str = "starting"
        #: Resolved engine name (set by ``mine()`` from its EnginePlan).
        self.engine: Optional[str] = None
        self.rows_scanned: int = 0
        self.live_candidates: int = 0
        self.rules_emitted: int = 0
        self.finished: bool = False
        self.failed: Optional[str] = None
        self._lock = threading.Lock()
        self._rate_window_rows = 0
        self._rate_window_start = self.started_monotonic
        self._rows_per_second = 0.0
        #: Continuous-mining fields (delta watermark, applied seq,
        #: rule count ...) published by a live miner; empty for batch
        #: runs.
        self._live_fields: Dict[str, object] = {}

    # -- engine-side writers ------------------------------------------

    def set_phase(self, name: str) -> None:
        self.phase = name

    def on_rows(self, rows_scanned: int) -> None:
        """Update the row counter and the rows/sec rate estimate."""
        self.rows_scanned = rows_scanned
        now = time.monotonic()
        with self._lock:
            elapsed = now - self._rate_window_start
            if elapsed >= 0.5:
                delta = rows_scanned - self._rate_window_rows
                self._rows_per_second = delta / elapsed if elapsed else 0.0
                self._rate_window_rows = rows_scanned
                self._rate_window_start = now

    def set_live(self, **fields: object) -> None:
        """Merge continuous-mining fields into the status (shown as
        the ``live`` object of the ``/runs/<id>`` body)."""
        with self._lock:
            self._live_fields.update(fields)

    def finish(self, failed: Optional[str] = None) -> None:
        self.failed = failed
        self.finished = True

    # -- server-side readers ------------------------------------------

    def rows_per_second(self) -> float:
        with self._lock:
            return self._rows_per_second

    def live_fields(self) -> Dict[str, object]:
        with self._lock:
            return dict(self._live_fields)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready point-in-time view (the ``/runs/<id>`` body)."""
        return {
            "live": self.live_fields(),
            "run_id": self.run_id,
            "started_at": self.started_at,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "phase": self.phase,
            "engine": self.engine,
            "rows_scanned": self.rows_scanned,
            "live_candidates": self.live_candidates,
            "rules_emitted": self.rules_emitted,
            "rows_per_second": self.rows_per_second(),
            "finished": self.finished,
            "failed": self.failed,
        }
