"""Live (continuous-mining) sessions inside the mining service.

A job submitted with ``"kind": "live"`` never runs through the
scheduler: the service opens a :class:`LiveSession` around a
:class:`~repro.live.miner.LiveMiner` rooted in the job's stable work
directory, seeds it with the spec's inline transactions (delta
sequence 1), and keeps it open until the job is cancelled or the
service shuts down.

Ingestion is split exactly like the miner splits it: ``submit_delta``
*commits* the batch to the WAL synchronously (cheap — one atomic
segment write) and wakes a per-session applier thread that folds
committed batches into the live state.  That asymmetry is what makes
the 429 backpressure honest: the *backlog* is the real gap between
the committed watermark and the applied sequence, and a client
producing faster than the miner can fold genuinely sees it grow.  A
delta document may carry ``"wait": true`` to block until its batch is
applied and receive the rule-churn receipt — the deterministic path
the parity tests and benchmarks use.

Crash safety is inherited from the WAL, the session's only durable
state: :meth:`LiveMiner.recover` mines every committed batch once on
the next open, applied or not, so a ``kill -9`` between commit and
apply loses nothing, and re-submitting a committed sequence after a
lost ACK is answered with an explicit ``duplicate`` receipt
(exactly-once).
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from typing import Dict, Optional

from repro.live.miner import DeltaReceipt, LiveMiner
from repro.live.wal import DeltaLogError
from repro.observe.live import LiveRunStatus
from repro.observe.tracer import Tracer
from repro.service.quotas import AdmissionError

#: Default cap on committed-but-unapplied batches per session; at or
#: past it new deltas are refused with 429 until the applier catches
#: up (``max_live_backlog`` on the service overrides it).
DEFAULT_MAX_BACKLOG = 64


class LiveSession:
    """One open continuous-mining session of a ``live`` job.

    Not constructed directly — :class:`repro.service.MiningService`
    opens sessions on submit and on recovery.  Thread-safe: the HTTP
    request threads call :meth:`submit_delta` / :meth:`snapshot`
    concurrently with the applier.
    """

    def __init__(
        self,
        job_id: str,
        workdir: str,
        task: str,
        threshold,
        *,
        storage=None,
        journal=None,
        trace_id: Optional[str] = None,
        max_backlog: int = DEFAULT_MAX_BACKLOG,
    ) -> None:
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        self.job_id = job_id
        self.max_backlog = max_backlog
        self.status = LiveRunStatus(run_id=job_id)
        # Delta-apply spans carry the submitting request's identity —
        # the same trace_id a batch job's attempt spans would.
        self.trace_id = trace_id or job_id
        self.tracer = Tracer(trace_id=self.trace_id)
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._applied = threading.Condition(self._lock)
        self._closed = False
        self._paused = False
        self._receipts: Dict[int, DeltaReceipt] = {}
        self._error: Optional[str] = None
        journal_extra = {"job_id": job_id, "trace_id": self.trace_id}
        self.miner = LiveMiner(
            os.path.join(workdir, "live"),
            task,
            threshold,
            storage=storage,
            journal=journal,
            journal_extra=journal_extra,
            status=self.status,
            tracer=self.tracer,
        )
        self._applier = threading.Thread(
            target=self._apply_loop,
            name=f"live-applier-{job_id}",
            daemon=True,
        )
        self._applier.start()

    # -- the applier ---------------------------------------------------

    def _apply_loop(self) -> None:
        while True:
            with self._wake:
                while not self._closed and (
                    self._paused
                    or self.miner.applied_seq >= self.miner.log.watermark
                ):
                    self._wake.wait(timeout=0.5)
                if self._closed:
                    return
            # Fold outside the session lock: committing new batches
            # must stay possible *while* applying, or the backlog (and
            # its 429) could never actually arise.  The miner's commit
            # and apply paths touch disjoint state (WAL tail vs the
            # mined rows and rules); the journal and status have their
            # own locks.
            try:
                receipts = self.miner.apply_committed()
            except Exception as error:  # surface, don't die silently
                with self._applied:
                    self._error = f"{type(error).__name__}: {error}"
                    self.status.finish(failed=self._error)
                    self._applied.notify_all()
                return
            with self._applied:
                for receipt in receipts:
                    self._receipts[receipt.seq] = receipt
                self._applied.notify_all()

    def pause(self) -> None:
        """Hold the applier (tests use this to grow a real backlog)."""
        with self._wake:
            self._paused = True

    def resume(self) -> None:
        with self._wake:
            self._paused = False
            self._wake.notify_all()

    # -- ingestion -----------------------------------------------------

    def backlog(self) -> int:
        """Committed-but-unapplied batches right now."""
        with self._lock:
            return self.miner.log.watermark - self.miner.applied_seq

    def submit_delta(
        self,
        seq: int,
        rows,
        wait: bool = False,
        wait_timeout: float = 30.0,
    ) -> DeltaReceipt:
        """Commit one delta batch; returns its receipt.

        Raises :class:`AdmissionError` (→ 429 + Retry-After) when the
        WAL backlog is at the cap, :class:`~repro.live.wal.
        OutOfOrderDelta` / :class:`~repro.live.wal.DeltaMismatch`
        (→ 409) for sequence-discipline violations.  ``wait=True``
        blocks until the batch is applied and returns the enriched
        rule-churn receipt.
        """
        with self._lock:
            if self._closed:
                raise DeltaLogError("live session is closed")
            if self._error is not None:
                raise DeltaLogError(
                    f"live session failed: {self._error}"
                )
            backlog = self.miner.log.watermark - self.miner.applied_seq
            if backlog >= self.max_backlog and seq > self.miner.log.watermark:
                raise AdmissionError(
                    f"live WAL backlog is {backlog} batches (cap "
                    f"{self.max_backlog}); apply in progress",
                    status=429, retry_after=1, kind="wal-backlog",
                )
            result = self.miner.commit(seq, rows)
            if result.duplicate:
                applied = self._receipts.get(seq)
                if applied is not None:
                    return replace(applied, status="duplicate")
                return self.miner.receipt(seq, "duplicate", result.rows)
            self._wake.notify_all()
            if not wait:
                return self.miner.receipt(seq, "committed", result.rows)
            self._applied.wait_for(
                lambda: (
                    seq in self._receipts
                    or self._error is not None
                    or self._closed
                ),
                timeout=wait_timeout,
            )
            if self._error is not None:
                raise DeltaLogError(
                    f"live session failed: {self._error}"
                )
            return self._receipts.get(seq) or self.miner.receipt(
                seq, "committed", result.rows
            )

    def wait_applied(self, seq: int, timeout: float = 30.0) -> bool:
        """Block until ``seq`` is applied (True) or timeout (False)."""
        with self._applied:
            return self._applied.wait_for(
                lambda: self.miner.applied_seq >= seq or self._closed,
                timeout=timeout,
            )

    # -- views ---------------------------------------------------------

    def rules_document(self) -> dict:
        """The current rule set as a result-style document."""
        import json

        from repro.mining.export import rules_to_json

        with self._lock:
            miner = self.miner
            rules = miner.rules()
            document = json.loads(
                rules_to_json(rules, miner.vocabulary())
            )
            document.update(
                {
                    "job_id": self.job_id,
                    "kind": "live",
                    "task": miner.task,
                    "threshold": str(miner.threshold),
                    "applied_seq": miner.applied_seq,
                    "watermark": miner.log.watermark,
                    "n_rows": miner.n_rows,
                    "n_rules": len(rules),
                }
            )
            return document

    def snapshot(self) -> dict:
        """The ``/runs/<job_id>`` body of this session."""
        document = self.status.snapshot()
        document["backlog"] = self.backlog()
        document["max_backlog"] = self.max_backlog
        if self._error is not None:
            document["failed"] = self._error
        return document

    # -- shutdown ------------------------------------------------------

    def close(self) -> None:
        """Stop the applier.

        The WAL keeps everything committed; the job record stays
        ``running`` on disk so the next service boot re-opens the
        session, which mines every committed batch once.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
            self._applied.notify_all()
        self._applier.join(timeout=10.0)
