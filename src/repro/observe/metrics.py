"""Counters, gauges and histograms for mining runs.

A :class:`MetricsRegistry` holds named metric families, each with zero
or more labelled instances — the shape Prometheus expects — and
exports to both JSON and the Prometheus text exposition format.  Like
the tracer it is zero dependency and cheap: a counter increment is one
attribute add, a gauge high-water update is one compare.

The registry also knows how to fold the engine's own measurements
(:class:`repro.core.stats.PipelineStats` / ``ScanStats``, a
:class:`repro.runtime.guards.MemoryGuard`) onto metric families, so a
run's statistical provenance and its operational counters live in one
exportable document.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (entries / bytes both fit).
DEFAULT_BUCKETS = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: ``\\``, ``"`` and newline."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Prometheus HELP-line escaping: ``\\`` and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing count.  Mutation is thread-safe.

    Instances created through a :class:`MetricsRegistry` share their
    family's lock; standalone instances get a private one.
    """

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value, with a high-water convenience setter.

    Mutation is thread-safe (see :class:`Counter` for lock sharing).
    """

    __slots__ = ("value", "_lock")

    def __init__(self, lock: Optional[threading.Lock] = None) -> None:
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new high water mark."""
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Mutation is thread-safe (see :class:`Counter` for lock sharing).
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.sum += value
            self.count += 1
            for index, upper in enumerate(self.buckets):
                if value <= upper:
                    self.counts[index] += 1

    def merge_counts(self, counts: Sequence[int], sum_: float,
                     count: int) -> None:
        """Bucket-wise add another histogram's per-bucket counts."""
        with self._lock:
            for index, extra in enumerate(counts):
                if index < len(self.counts):
                    self.counts[index] += int(extra)
            self.sum += sum_
            self.count += int(count)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, plus ``+Inf``."""
        return list(zip(self.buckets, self.counts)) + [
            (float("inf"), self.count)
        ]


class _Family:
    """One named metric family: a kind, help text, labelled instances.

    The family owns one lock shared by every instance, so concurrent
    mutation of sibling instances serializes here and an exporting
    reader can take the same lock for a consistent snapshot.
    """

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.instances: Dict[LabelKey, object] = {}
        self.lock = threading.Lock()


class MetricsRegistry:
    """All metric families of one run, keyed by metric name."""

    def __init__(self, prefix: str = "dmc") -> None:
        self.prefix = prefix
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Metric creation / lookup
    # ------------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            return family

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        family = self._family(name, "counter", help_text)
        key = _label_key(labels)
        with family.lock:
            instance = family.instances.get(key)
            if instance is None:
                instance = family.instances[key] = Counter(lock=family.lock)
        return instance  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        family = self._family(name, "gauge", help_text)
        key = _label_key(labels)
        with family.lock:
            instance = family.instances.get(key)
            if instance is None:
                instance = family.instances[key] = Gauge(lock=family.lock)
        return instance  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        family = self._family(name, "histogram", help_text)
        key = _label_key(labels)
        with family.lock:
            instance = family.instances.get(key)
            if instance is None:
                instance = family.instances[key] = Histogram(
                    buckets, lock=family.lock
                )
        return instance  # type: ignore[return-value]

    def get(self, name: str, **labels) -> Optional[object]:
        """The existing instance of ``name`` with ``labels``, or None."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return None
        with family.lock:
            return family.instances.get(_label_key(labels))

    def value(self, name: str, **labels) -> Optional[float]:
        """Shortcut: the scalar value of a counter/gauge, or None."""
        instance = self.get(name, **labels)
        if instance is None or isinstance(instance, Histogram):
            return None
        return instance.value  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Folding engine measurements onto the registry
    # ------------------------------------------------------------------

    def record_scan(self, scan_name: str, scan) -> None:
        """Fold one :class:`repro.core.stats.ScanStats` onto families."""
        p = self.prefix
        labels = {"scan": scan_name}
        self.counter(
            f"{p}_rows_scanned_total", "Rows consumed by the scan.",
            **labels,
        ).inc(scan.rows_scanned)
        self.counter(
            f"{p}_candidates_added_total",
            "Candidate pairs ever placed on a candidate list.", **labels,
        ).inc(scan.candidates_added)
        for cause, count in (
            ("budget", scan.candidates_deleted_budget),
            ("dynamic", scan.candidates_deleted_dynamic),
        ):
            self.counter(
                f"{p}_candidates_deleted_total",
                "Candidate deletions, by cause.", cause=cause, **labels,
            ).inc(count)
        self.counter(
            f"{p}_candidates_rejected_total",
            "Surviving candidates rejected by the final validity test.",
            **labels,
        ).inc(scan.candidates_rejected)
        self.counter(
            f"{p}_rules_emitted_total", "Rules emitted by the scan.",
            **labels,
        ).inc(scan.rules_emitted)
        self.gauge(
            f"{p}_counter_array_peak_bytes",
            "Peak modelled bytes of the counter array.", **labels,
        ).set_max(scan.peak_bytes)
        self.gauge(
            f"{p}_counter_array_peak_entries",
            "Peak candidate entries across the scan.", **labels,
        ).set_max(scan.peak_entries)
        self.gauge(
            f"{p}_bitmap_switch_row",
            "Scan-order row at which the DMC-bitmap tail took over "
            "(-1: never).", **labels,
        ).set(-1 if scan.bitmap_switch_at is None else scan.bitmap_switch_at)
        if scan.guard_tripped_at is not None:
            self.counter(
                f"{p}_guard_trips_total",
                "Rows at which a MemoryGuard forced degradation.", **labels,
            ).inc()
        self.counter(
            f"{p}_rows_skipped_total",
            "Malformed rows dropped by a skip-mode validator.", **labels,
        ).inc(scan.rows_skipped)
        self.counter(
            f"{p}_rows_clamped_total",
            "Malformed rows repaired by a clamp-mode validator.", **labels,
        ).inc(scan.rows_clamped)
        self.counter(
            f"{p}_io_retries_total",
            "Transient I/O errors retried successfully.", **labels,
        ).inc(scan.io_retries)
        self.gauge(
            f"{p}_bitmap_bytes", "Bytes of the packed tail bitmaps.",
            **labels,
        ).set_max(scan.bitmap_bytes)

    def record_pipeline(self, stats) -> None:
        """Fold a full :class:`repro.core.stats.PipelineStats` run."""
        p = self.prefix
        for phase, seconds in stats.timer.seconds.items():
            self.gauge(
                f"{p}_phase_seconds", "Wall-clock seconds per phase.",
                phase=phase,
            ).set(seconds)
        self.record_scan("100%-rules", stats.hundred_percent_scan)
        self.record_scan("partial", stats.partial_scan)
        self.gauge(
            f"{p}_columns_total", "Columns in the mined matrix."
        ).set(stats.columns_total)
        self.gauge(
            f"{p}_columns_removed",
            "Columns removed before the <100% pass (deletion by "
            "column removal).",
        ).set(stats.columns_removed)
        self.gauge(
            f"{p}_rules_total", "Rules mined, by pass.",
            **{"pass": "hundred"},
        ).set(stats.rules_hundred_percent)
        self.gauge(
            f"{p}_rules_total", "Rules mined, by pass.",
            **{"pass": "partial"},
        ).set(stats.rules_partial)
        for index, fresh in enumerate(stats.partition_candidates):
            self.gauge(
                f"{p}_partition_new_candidates",
                "New candidate pairs contributed by each partition.",
                partition=str(index),
            ).set(fresh)

    def record_guard(self, guard) -> None:
        """Fold a :class:`repro.runtime.guards.MemoryGuard`'s state."""
        p = self.prefix
        self.gauge(
            f"{p}_guard_budget_bytes", "MemoryGuard hard budget."
        ).set(guard.budget_bytes)
        self.gauge(
            f"{p}_guard_high_water_bytes",
            "Highest counter-array memory the guard observed.",
        ).set_max(guard.high_water_bytes)
        self.counter(
            f"{p}_guard_budget_exceeded_total",
            "Times the guard found the counter array over budget.",
        ).inc(guard.trips)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _sorted_families(self) -> List[_Family]:
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of every family and instance."""
        families = []
        for family in self._sorted_families():
            instances = []
            with family.lock:
                for key in sorted(family.instances):
                    instance = family.instances[key]
                    record: Dict[str, object] = {"labels": dict(key)}
                    if isinstance(instance, Histogram):
                        record["sum"] = instance.sum
                        record["count"] = instance.count
                        record["buckets"] = [
                            {"le": upper, "count": count}
                            for upper, count in zip(
                                instance.buckets, instance.counts
                            )
                        ]
                    else:
                        record["value"] = instance.value  # type: ignore
                    instances.append(record)
            families.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "instances": instances,
                }
            )
        return {"version": 1, "metrics": families}

    def merge_document(
        self, document: Dict[str, object], kinds: Optional[set] = None
    ) -> None:
        """Fold a :meth:`to_dict` document from another registry in.

        Cross-process aggregation: counters are summed, gauges
        high-water merged, histograms bucket-wise added (per-bucket
        counts are independent tallies, so addition is exact).  Pass
        ``kinds={"gauge"}`` to fold only the live families — the merge
        discipline for in-flight worker flushes, whose counter deltas
        must wait until the attempt is accepted.
        """
        for family_record in document.get("metrics", []):
            kind = family_record.get("kind")
            if kinds is not None and kind not in kinds:
                continue
            name = family_record.get("name", "")
            help_text = family_record.get("help", "")
            for record in family_record.get("instances", []):
                labels = record.get("labels", {})
                if kind == "counter":
                    value = float(record.get("value", 0.0))
                    if value:
                        self.counter(name, help_text, **labels).inc(value)
                elif kind == "gauge":
                    self.gauge(name, help_text, **labels).set_max(
                        float(record.get("value", 0.0))
                    )
                elif kind == "histogram":
                    buckets_record = record.get("buckets", [])
                    uppers = [b["le"] for b in buckets_record]
                    histogram = self.histogram(
                        name, help_text,
                        buckets=uppers or DEFAULT_BUCKETS, **labels,
                    )
                    histogram.merge_counts(
                        [b["count"] for b in buckets_record],
                        float(record.get("sum", 0.0)),
                        int(record.get("count", 0)),
                    )

    def to_json(self, indent: int = 2) -> str:
        """The registry as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self._sorted_families():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            with family.lock:
                for key in sorted(family.instances):
                    instance = family.instances[key]
                    if isinstance(instance, Histogram):
                        for upper, cumulative in instance.cumulative():
                            le = "+Inf" if upper == float("inf") else (
                                _format_value(upper)
                            )
                            bucket_key = key + (("le", le),)
                            lines.append(
                                f"{family.name}_bucket"
                                f"{_format_labels(bucket_key)} {cumulative}"
                            )
                        lines.append(
                            f"{family.name}_sum{_format_labels(key)} "
                            f"{_format_value(instance.sum)}"
                        )
                        lines.append(
                            f"{family.name}_count{_format_labels(key)} "
                            f"{instance.count}"
                        )
                    else:
                        lines.append(
                            f"{family.name}{_format_labels(key)} "
                            f"{_format_value(instance.value)}"  # type: ignore
                        )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"


def metrics_delta(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, object]:
    """The change between two :meth:`MetricsRegistry.to_dict` snapshots.

    Counters and histograms are subtracted (instances absent from
    ``baseline`` pass through whole); gauges pass through at their
    current value, since a gauge delta is meaningless under max-merge.
    Workers use this to ship periodic flush ticks that the parent can
    merge without double counting what an earlier tick already carried.
    """

    def index(document):
        table = {}
        for family_record in document.get("metrics", []):
            for record in family_record.get("instances", []):
                key = (
                    family_record.get("name", ""),
                    _label_key(record.get("labels", {})),
                )
                table[key] = record
        return table

    base = index(baseline)
    families = []
    for family_record in current.get("metrics", []):
        kind = family_record.get("kind")
        name = family_record.get("name", "")
        instances = []
        for record in family_record.get("instances", []):
            previous = base.get((name, _label_key(record.get("labels", {}))))
            out = dict(record)
            if previous is not None and kind == "counter":
                out["value"] = record.get("value", 0.0) - previous.get(
                    "value", 0.0
                )
                if not out["value"]:
                    continue
            elif previous is not None and kind == "histogram":
                out["sum"] = record.get("sum", 0.0) - previous.get(
                    "sum", 0.0
                )
                out["count"] = record.get("count", 0) - previous.get(
                    "count", 0
                )
                previous_counts = {
                    b["le"]: b["count"]
                    for b in previous.get("buckets", [])
                }
                out["buckets"] = [
                    {
                        "le": b["le"],
                        "count": b["count"]
                        - previous_counts.get(b["le"], 0),
                    }
                    for b in record.get("buckets", [])
                ]
                if not out["count"]:
                    continue
            instances.append(out)
        if instances:
            families.append(
                {
                    "name": name,
                    "kind": kind,
                    "help": family_record.get("help", ""),
                    "instances": instances,
                }
            )
    return {"version": 1, "metrics": families}
