"""The :class:`RunObserver`: tracer + metrics + progress in one handle.

This is the object the mining entry points accept as ``observer=``.
It owns a :class:`~repro.observe.tracer.Tracer` and a
:class:`~repro.observe.metrics.MetricsRegistry`, forwards progress
events to an optional :class:`~repro.observe.progress.ProgressObserver`
sink, and knows how to fold a finished run's
:class:`~repro.core.stats.PipelineStats` onto the registry.

The engine-facing contract is the :class:`ProgressObserver` protocol
plus two context managers:

- ``phase(name)`` — a top-level pipeline phase (pre-scan, 100%-rules,
  <100%-rules, ...); sets the scan label used by per-row events;
- ``span(name, **attributes)`` — any nested timed region (spill
  bucket replay, the bitmap tail, checkpoint save/load).

A disabled observer (``repro.observe.NULL_OBSERVER``) costs the hot
loop one attribute check per row.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.observe.journal import RULES_MILESTONE_EVERY, RunJournal
from repro.observe.live import LiveRunStatus
from repro.observe.metrics import Gauge, MetricsRegistry
from repro.observe.progress import (
    NULL_OBSERVER,
    ProgressObserver,
)
from repro.observe.tracer import Tracer

#: Number of scan-position bands for the candidates-alive gauges.
DEFAULT_BANDS = 10

#: Span names that mark a checkpoint touch (journaled as events).
_CHECKPOINT_SPANS = frozenset({"checkpoint-save", "checkpoint-load"})


def new_run_id() -> str:
    """A short, unique run identifier (12 hex chars)."""
    return uuid.uuid4().hex[:12]


class RunObserver(ProgressObserver):
    """Observe a mining run: nested spans, metrics, progress events.

    Optionally also the run's *live* surfaces: a
    :class:`~repro.observe.live.LiveRunStatus` (fed to the
    :class:`~repro.observe.server.MetricsServer` routes) and a
    :class:`~repro.observe.journal.RunJournal` receiving one event per
    notable state change.  Both stay ``None``-cheap when absent.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressObserver] = None,
        bands: int = DEFAULT_BANDS,
        run_id: Optional[str] = None,
        journal: Optional[RunJournal] = None,
        status: Optional[LiveRunStatus] = None,
    ) -> None:
        if bands < 1:
            raise ValueError("bands must be at least 1")
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.progress = progress if progress is not None else NULL_OBSERVER
        self.bands = bands
        self.run_id = run_id if run_id is not None else new_run_id()
        self.journal = journal
        self.status = status
        self._scan = "scan"
        self._band_gauges: Dict[Tuple[str, int], Gauge] = {}
        self._live_gauges: Dict[str, Gauge] = {}
        self._curve_gauges: Dict[str, Gauge] = {}
        self._rules_milestone = 0
        # Per-row state is buffered in plain scalars/dicts (single
        # engine writer; GIL-atomic updates) and folded onto the
        # registry by flush() — at curve-sample cadence, phase
        # boundaries and finish() — so the hot loop never takes a
        # registry lock.
        self._flush_lock = threading.Lock()
        self._rows_seen = 0
        self._last_entries = 0
        self._row_scan: Optional[str] = None
        self._peak_band = -1
        self._peak_value = -1
        self._pending_entries: Dict[str, int] = {}
        self._band_peaks: Dict[Tuple[str, int], int] = {}
        #: Values already folded onto the gauges (dirty-skip cache).
        self._flushed: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Context managers used by the pipelines
    # ------------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, timer=None) -> Iterator[None]:
        """A top-level pipeline phase: traced span + scan label.

        ``timer`` (a :class:`repro.core.stats.PhaseTimer`) accumulates
        the span's own ``seconds``, so the stats breakdown and the
        trace agree exactly.
        """
        previous = self._scan
        self._scan = name
        if self.status is not None:
            self.status.set_phase(name)
        if self.journal is not None:
            self.journal.emit("phase-start", name=name)
        if self.progress.enabled:
            self.progress.on_phase_start(name)
        try:
            with self.tracer.span(name) as span:
                yield
        finally:
            self._scan = previous
            if timer is not None:
                timer.add(name, span.seconds)
            self.flush()
            if self.journal is not None:
                self.journal.emit(
                    "phase-end", name=name, seconds=span.seconds
                )
            if self.progress.enabled:
                self.progress.on_phase_end(name, span.seconds)

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[None]:
        """A nested timed region inside the current phase."""
        with self.tracer.span(name, **attributes):
            yield
        if self.journal is not None and name in _CHECKPOINT_SPANS:
            self.journal.emit("checkpoint", kind=name, **attributes)

    def annotate(self, **attributes) -> None:
        """Attach attributes to the innermost open span."""
        self.tracer.annotate(**attributes)

    # ------------------------------------------------------------------
    # Engine-facing hooks
    # ------------------------------------------------------------------

    def on_row(
        self,
        position: int,
        total: int,
        entries: int,
        memory_bytes: int,
        scan: str = "",
    ) -> None:
        if not scan:
            scan = self._scan
        self._rows_seen += 1
        self._last_entries = entries
        band = position * self.bands // total if total else 0
        if band >= self.bands:
            band = self.bands - 1
        # Scalar fast path: dict writes only on scan/band transitions
        # and new peaks, keeping the per-row cost a handful of ops.
        if scan != self._row_scan or band != self._peak_band:
            self._row_scan = scan
            self._peak_band = band
            self._pending_entries[scan] = entries
            key = (scan, band)
            peak = self._band_peaks.get(key, -1)
            if entries > peak:
                self._band_peaks[key] = entries
                peak = entries
            self._peak_value = peak
        elif entries > self._peak_value:
            self._peak_value = entries
            self._band_peaks[(scan, band)] = entries
        if self.progress.enabled:
            self.progress.on_row(position, total, entries, memory_bytes, scan)

    def flush(self) -> None:
        """Fold buffered per-row state onto the registry and status.

        Idempotent and thread-safe: gauges get last-value/peak
        semantics, so re-flushing the same state is harmless.  Called
        at curve-sample cadence, on phase boundaries and at finish() —
        the live ``/metrics`` view is therefore at most one sample
        stale.
        """
        with self._flush_lock:
            rows_seen = self._rows_seen
            row_scan = self._row_scan
            if row_scan is not None:
                self._pending_entries[row_scan] = self._last_entries
            try:
                entries_by_scan = list(self._pending_entries.items())
                band_peaks = list(self._band_peaks.items())
            except RuntimeError:
                # The engine inserted a new scan/band key mid-snapshot
                # (a scrape racing the hot loop); the next flush will
                # pick the state up.
                return
        flushed = self._flushed
        for scan, entries in entries_by_scan:
            if flushed.get(scan) == entries:
                continue
            flushed[scan] = entries
            live = self._live_gauges.get(scan)
            if live is None:
                live = self._live_gauges[scan] = self.metrics.gauge(
                    f"{self.metrics.prefix}_candidates_alive",
                    "Live candidate entries after the latest row.",
                    scan=scan,
                )
            live.set(entries)
        for key, peak in band_peaks:
            if flushed.get(key) == peak:
                continue
            flushed[key] = peak
            gauge = self._band_gauges.get(key)
            if gauge is None:
                scan, band = key
                gauge = self._band_gauges[key] = self.metrics.gauge(
                    f"{self.metrics.prefix}_candidates_alive_band",
                    "Peak live candidate entries per scan-position band.",
                    scan=scan, band=str(band),
                )
            gauge.set_max(peak)
        if self.status is not None and rows_seen:
            self.status.on_rows(rows_seen)
            self.status.live_candidates = self._last_entries

    # The switch row and the trip count are metrics of the finished
    # scan: record_scan() folds them once, labelled like the other
    # per-scan families.
    def on_bitmap_switch(self, position: int, scan: str = "") -> None:
        scan = scan or self._scan
        if self.journal is not None:
            self.journal.emit("bitmap-switch", scan=scan, position=position)
        if self.progress.enabled:
            self.progress.on_bitmap_switch(position, scan)

    def on_guard_trip(self, position: int, scan: str = "") -> None:
        scan = scan or self._scan
        if self.journal is not None:
            self.journal.emit("guard-trip", scan=scan, position=position)
        if self.progress.enabled:
            self.progress.on_guard_trip(position, scan)

    def on_bucket(self, name: str, rows: int) -> None:
        self.metrics.counter(
            f"{self.metrics.prefix}_buckets_replayed_total",
            "Spill bucket files replayed during pass 2.",
        ).inc()
        if self.progress.enabled:
            self.progress.on_bucket(name, rows)

    def on_retry(self, site: str) -> None:
        self.metrics.counter(
            f"{self.metrics.prefix}_retries_total",
            "Transient-failure retries, by site.", site=site,
        ).inc()
        if self.progress.enabled:
            self.progress.on_retry(site)

    def on_io_error(self, kind: str) -> None:
        self.metrics.counter(
            f"{self.metrics.prefix}_io_errors_total",
            "Storage I/O errors observed, by errno name.", kind=kind,
        ).inc()
        if self.progress.enabled:
            self.progress.on_io_error(kind)

    def on_degradation(self, path: str) -> None:
        self.metrics.counter(
            f"{self.metrics.prefix}_degradations_total",
            "Storage-fault degradations taken, by ladder step.", path=path,
        ).inc()
        if self.journal is not None:
            self.journal.emit("degradation", path=path)
        if self.progress.enabled:
            self.progress.on_degradation(path)

    # ------------------------------------------------------------------
    # Live telemetry hooks
    # ------------------------------------------------------------------

    def on_curve_sample(
        self,
        rows_scanned: int,
        live_candidates: int,
        cumulative_misses: int,
        rules_emitted: int,
        scan: str = "",
    ) -> None:
        """A pruning-curve point was sampled by the scan engine."""
        scan = scan or self._scan
        self.flush()
        gauge = self._curve_gauges.get(scan)
        if gauge is None:
            gauge = self._curve_gauges[scan] = self.metrics.gauge(
                f"{self.metrics.prefix}_live_candidates",
                "Live candidates at the latest pruning-curve sample.",
                scan=scan,
            )
        gauge.set(live_candidates)
        if self.status is not None:
            self.status.rules_emitted = rules_emitted
        if self.journal is not None:
            self.journal.emit(
                "curve-sample",
                scan=scan,
                rows_scanned=rows_scanned,
                live_candidates=live_candidates,
                cumulative_misses=cumulative_misses,
                rules_emitted=rules_emitted,
            )
            milestone = rules_emitted // RULES_MILESTONE_EVERY
            if milestone > self._rules_milestone:
                self._rules_milestone = milestone
                self.journal.emit(
                    "rules-milestone",
                    scan=scan,
                    rules_emitted=rules_emitted,
                )
        if self.progress.enabled:
            self.progress.on_curve_sample(
                rows_scanned, live_candidates, cumulative_misses,
                rules_emitted, scan,
            )

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def finish(self, stats=None) -> None:
        """Fold a completed run's measurements onto the registry.

        Call once per mined run (the :func:`repro.mine` facade and the
        CLI do this for you).  ``stats`` is the run's
        :class:`~repro.core.stats.PipelineStats`.
        """
        self.flush()
        if stats is not None:
            self.metrics.record_pipeline(stats)
        if self.status is not None:
            self.status.finish()
        if self.journal is not None and stats is not None:
            self.journal.emit(
                "run-end",
                engine=stats.engine,
                rules=stats.rules_hundred_percent + stats.rules_partial,
                rows_scanned=(
                    stats.hundred_percent_scan.rows_scanned
                    + stats.partial_scan.rows_scanned
                ),
                degradations=list(stats.degradations),
            )

    def __repr__(self) -> str:
        return (
            f"RunObserver(spans={len(self.tracer.spans)}, "
            f"metrics={self.metrics!r})"
        )
