"""Instrumentation for the DMC scans and pipelines.

The paper's evaluation reports three kinds of measurements, all captured
here:

- the peak counter-array entries and memory of each scan (Figure
  6(g)/(h)) and its sampled pruning curve, in bounded memory (the
  per-row trajectory of Figure 3 reaches a ``ProgressObserver.on_row``
  hook instead of being stored);
- per-phase wall-clock time — pre-scan, 100%-rule pass, <100% pass, and
  the DMC-bitmap tail inside each pass (Figure 6(c)-(f));
- event counters (candidates added/deleted, rules emitted, the row at
  which the bitmap switch fired).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.observe.progress import NULL_OBSERVER

#: Default row stride between pruning-curve samples.
DEFAULT_CURVE_EVERY = 32

#: Default bound on retained pruning-curve points (ring-buffer style:
#: when full, every other point is dropped and the stride doubles).
DEFAULT_CURVE_MAX_POINTS = 1024


@dataclass
class PruningCurve:
    """Sampled candidate-survival trajectory of one scan.

    The paper's Section 6 figures plot the candidate set decaying as
    rows are consumed; this is that curve, captured live.  Every
    ``every`` rows (and once at scan end) a point
    ``(rows_scanned, live_candidates, cumulative_misses,
    rules_emitted)`` is recorded.  The buffer is bounded: when
    ``max_points`` is reached the curve decimates itself — every other
    point is dropped and the stride doubles — so an arbitrarily long
    run keeps a uniformly-spaced, fixed-memory curve whose final point
    is always exact.
    """

    every: int = DEFAULT_CURVE_EVERY
    max_points: int = DEFAULT_CURVE_MAX_POINTS
    points: List[Tuple[int, int, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("every must be at least 1")
        if self.max_points < 4:
            raise ValueError("max_points must be at least 4")

    def due(self, rows_scanned: int) -> bool:
        """Whether ``rows_scanned`` lands on the current sample stride."""
        return rows_scanned % self.every == 0

    def sample(
        self,
        rows_scanned: int,
        live_candidates: int,
        cumulative_misses: int,
        rules_emitted: int,
    ) -> None:
        """Record one point, decimating first if the buffer is full."""
        if len(self.points) >= self.max_points:
            self.points = self.points[::2]
            self.every *= 2
        self.points.append(
            (rows_scanned, live_candidates, cumulative_misses,
             rules_emitted)
        )

    def sample_final(
        self,
        rows_scanned: int,
        live_candidates: int,
        cumulative_misses: int,
        rules_emitted: int,
    ) -> None:
        """Record the end-of-scan point (replacing a same-row sample)."""
        if self.points and self.points[-1][0] == rows_scanned:
            self.points[-1] = (
                rows_scanned, live_candidates, cumulative_misses,
                rules_emitted,
            )
            return
        self.sample(
            rows_scanned, live_candidates, cumulative_misses, rules_emitted
        )

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "every": self.every,
            "max_points": self.max_points,
            "points": [list(point) for point in self.points],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "PruningCurve":
        """Rebuild a :class:`PruningCurve` written by :meth:`to_dict`."""
        return cls(
            every=record.get("every", DEFAULT_CURVE_EVERY),
            max_points=record.get("max_points", DEFAULT_CURVE_MAX_POINTS),
            points=[tuple(point) for point in record.get("points", [])],
        )


@dataclass
class ScanStats:
    """Measurements from one miss-counting scan."""

    #: Most candidate entries, and counter-array bytes, after any row.
    peak_entries: int = 0
    peak_bytes: int = 0
    rows_scanned: int = 0
    candidates_added: int = 0
    candidates_deleted: int = 0
    #: Deletions caused by an exhausted pair miss budget (includes the
    #: 100%-rule pass, whose budget is zero).
    candidates_deleted_budget: int = 0
    #: Deletions caused by the dynamic confidence/similarity prune.
    candidates_deleted_dynamic: int = 0
    #: Surviving candidates rejected by the final validity test at
    #: emit time (never deleted, never became rules).
    candidates_rejected: int = 0
    rules_emitted: int = 0
    #: Index into the scan order at which DMC-bitmap took over (or None).
    bitmap_switch_at: Optional[int] = None
    #: Row at which the bitmap switch's hard budget forced early
    #: degradation (or None).
    guard_tripped_at: Optional[int] = None
    #: Rows dropped by a ``skip``-mode RowValidator during the first pass.
    rows_skipped: int = 0
    #: Rows repaired by a ``clamp``-mode RowValidator during the first pass.
    rows_clamped: int = 0
    #: Transient spill-I/O errors that were retried successfully.
    io_retries: int = 0
    #: Total miss-count increments observed during the scan (one per
    #: candidate per row on which its implication failed).
    misses_recorded: int = 0
    #: Sampled candidate-survival trajectory (the paper's decay curves).
    pruning_curve: PruningCurve = field(default_factory=PruningCurve)
    bitmap_bytes: int = 0
    bitmap_phase1_columns: int = 0
    bitmap_phase2_columns: int = 0
    bitmap_seconds: float = 0.0
    scan_seconds: float = 0.0

    def record_rows(
        self, n_rows: int, entries: int, memory_bytes: int
    ) -> None:
        """Record state after ``n_rows`` more rows of the scan (one for
        the serial scans, a block for the vector scan)."""
        self.rows_scanned += n_rows
        if entries > self.peak_entries:
            self.peak_entries = entries
        if memory_bytes > self.peak_bytes:
            self.peak_bytes = memory_bytes

    def accounting_balanced(self) -> bool:
        """Every candidate ever added must be accounted for exactly.

        A completed scan satisfies two identities: deletions split
        exactly into their causes, and every added candidate was either
        deleted, rejected by the final validity test, or emitted as a
        rule.  The observability tests (and the CLI's ``--metrics``
        consistency check) rely on this.
        """
        return (
            self.candidates_deleted
            == self.candidates_deleted_budget
            + self.candidates_deleted_dynamic
            and self.candidates_added
            == self.candidates_deleted
            + self.candidates_rejected
            + self.rules_emitted
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (exact integers throughout)."""
        return {
            "peak_entries": self.peak_entries,
            "peak_bytes": self.peak_bytes,
            "rows_scanned": self.rows_scanned,
            "candidates_added": self.candidates_added,
            "candidates_deleted": self.candidates_deleted,
            "candidates_deleted_budget": self.candidates_deleted_budget,
            "candidates_deleted_dynamic": self.candidates_deleted_dynamic,
            "candidates_rejected": self.candidates_rejected,
            "rules_emitted": self.rules_emitted,
            "bitmap_switch_at": self.bitmap_switch_at,
            "guard_tripped_at": self.guard_tripped_at,
            "rows_skipped": self.rows_skipped,
            "rows_clamped": self.rows_clamped,
            "io_retries": self.io_retries,
            "misses_recorded": self.misses_recorded,
            "pruning_curve": self.pruning_curve.to_dict(),
            "bitmap_bytes": self.bitmap_bytes,
            "bitmap_phase1_columns": self.bitmap_phase1_columns,
            "bitmap_phase2_columns": self.bitmap_phase2_columns,
            "bitmap_seconds": self.bitmap_seconds,
            "scan_seconds": self.scan_seconds,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "ScanStats":
        """Rebuild a :class:`ScanStats` written by :meth:`to_dict`."""
        known = {
            field_name: record[field_name]
            for field_name in cls.__dataclass_fields__
            if field_name in record
        }
        if "pruning_curve" in known:
            known["pruning_curve"] = PruningCurve.from_dict(
                known["pruning_curve"]
            )
        return cls(**known)


@dataclass
class PhaseTimer:
    """Named wall-clock phases for the pipeline breakdown figures."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def phase(self, name: str):
        """Time a ``with`` block under ``name`` (accumulating); the
        pipelines time theirs through ``observer.phase(name, timer)``,
        which feeds the observer the same reading."""
        return NULL_OBSERVER.phase(name, self)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def total(self) -> float:
        """Total seconds across all phases."""
        return sum(self.seconds.values())

    def to_dict(self) -> Dict[str, float]:
        """Phase name -> seconds, in insertion order."""
        return dict(self.seconds)

    @classmethod
    def from_dict(cls, record: Dict[str, float]) -> "PhaseTimer":
        """Rebuild a :class:`PhaseTimer` written by :meth:`to_dict`."""
        return cls(seconds=dict(record))


@dataclass
class PipelineStats:
    """Aggregated measurements from a full DMC-imp / DMC-sim run."""

    timer: PhaseTimer = field(default_factory=PhaseTimer)
    hundred_percent_scan: ScanStats = field(default_factory=ScanStats)
    partial_scan: ScanStats = field(default_factory=ScanStats)
    columns_total: int = 0
    columns_removed: int = 0
    rules_hundred_percent: int = 0
    rules_partial: int = 0
    #: Resolved engine that ran (``"dmc"``, ``"vector"``,
    #: ``"stream+vector"`` or ``"partitioned+vector"``); None when the
    #: run predates engine recording or bypassed ``repro.mine()``.
    engine: Optional[str] = None
    #: Second-pass scan that ran (``"serial"`` or ``"vector"``); None
    #: before a run.
    scan_engine: Optional[str] = None
    #: New candidate pairs contributed by each partition (partitioned
    #: mining only).
    partition_candidates: List[int] = field(default_factory=list)
    #: Degradations taken when storage faulted, in order — rungs of
    #: :data:`repro.runtime.storage.LADDER`, each recorded by
    #: :func:`repro.runtime.storage.degrade`.  Empty for a clean run.
    degradations: List[str] = field(default_factory=list)

    @property
    def peak_bytes(self) -> int:
        """Peak counter-array bytes across both passes."""
        return max(
            self.hundred_percent_scan.peak_bytes, self.partial_scan.peak_bytes
        )

    @property
    def peak_entries(self) -> int:
        """Peak candidate entries across both passes."""
        return max(
            self.hundred_percent_scan.peak_entries,
            self.partial_scan.peak_entries,
        )

    @property
    def pruning_curve(self) -> List[Tuple[int, int, int, int]]:
        """Sampled candidate-survival points for the dominant scan.

        The <100% pass drives the paper's decay figures; runs that only
        perform the 100%-rule pass fall back to that scan's curve.
        """
        if self.partial_scan.pruning_curve.points:
            return list(self.partial_scan.pruning_curve.points)
        return list(self.hundred_percent_scan.pruning_curve.points)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds across all phases."""
        return self.timer.total()

    def breakdown(self) -> Dict[str, float]:
        """Phase name -> seconds, in insertion order."""
        return dict(self.timer.seconds)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the whole run's provenance."""
        return {
            "timer": self.timer.to_dict(),
            "hundred_percent_scan": self.hundred_percent_scan.to_dict(),
            "partial_scan": self.partial_scan.to_dict(),
            "columns_total": self.columns_total,
            "columns_removed": self.columns_removed,
            "rules_hundred_percent": self.rules_hundred_percent,
            "rules_partial": self.rules_partial,
            "engine": self.engine,
            "scan_engine": self.scan_engine,
            "partition_candidates": list(self.partition_candidates),
            "degradations": list(self.degradations),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "PipelineStats":
        """Rebuild a :class:`PipelineStats` written by :meth:`to_dict`."""
        return cls(
            timer=PhaseTimer.from_dict(record.get("timer", {})),
            hundred_percent_scan=ScanStats.from_dict(
                record.get("hundred_percent_scan", {})
            ),
            partial_scan=ScanStats.from_dict(
                record.get("partial_scan", {})
            ),
            columns_total=record.get("columns_total", 0),
            columns_removed=record.get("columns_removed", 0),
            rules_hundred_percent=record.get("rules_hundred_percent", 0),
            rules_partial=record.get("rules_partial", 0),
            engine=record.get("engine"),
            scan_engine=record.get("scan_engine"),
            partition_candidates=list(
                record.get("partition_candidates", [])
            ),
            degradations=list(record.get("degradations", [])),
        )
