"""File exporters for traces and metric registries.

Two formats:

- **JSON** — the native ``to_dict()`` documents of
  :class:`~repro.observe.tracer.Tracer` and
  :class:`~repro.observe.metrics.MetricsRegistry`;
- **Prometheus text exposition** — chosen automatically when the
  metrics path ends in ``.prom`` or ``.txt`` (or forced with
  ``fmt="prometheus"``), so a run's metrics file can be dropped
  straight into a node-exporter textfile collector.

Writes go through :meth:`repro.runtime.storage.Storage
.atomic_write_text` — temp file, fsync, rename, parent-directory
fsync — so a crash mid-export never leaves a truncated document
behind, and the rename itself survives a power cut.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import Tracer
from repro.runtime.storage import LOCAL_STORAGE

#: Metrics-path suffixes that select the Prometheus text format.
PROMETHEUS_SUFFIXES = (".prom", ".txt")


def _atomic_write(path: str, content: str, storage=None) -> None:
    storage = storage if storage is not None else LOCAL_STORAGE
    storage.atomic_write_text(path, content)


def metrics_format_for(path: str, fmt: Optional[str] = None) -> str:
    """Resolve the metrics format for ``path``: "json" or "prometheus"."""
    if fmt is not None:
        if fmt not in ("json", "prometheus"):
            raise ValueError(
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
            )
        return fmt
    suffix = os.path.splitext(path)[1].lower()
    return "prometheus" if suffix in PROMETHEUS_SUFFIXES else "json"


def write_metrics(
    registry: MetricsRegistry,
    path: str,
    fmt: Optional[str] = None,
    storage=None,
) -> str:
    """Write ``registry`` to ``path``; returns the format used."""
    resolved = metrics_format_for(path, fmt)
    if resolved == "prometheus":
        _atomic_write(path, registry.to_prometheus(), storage=storage)
    else:
        _atomic_write(path, registry.to_json() + "\n", storage=storage)
    return resolved


def write_trace(tracer: Tracer, path: str, storage=None) -> None:
    """Write ``tracer``'s span tree to ``path`` as JSON."""
    _atomic_write(path, tracer.to_json() + "\n", storage=storage)


def trace_to_chrome(document: dict, process_name: str = "repro") -> dict:
    """Convert a native trace document to Chrome-trace (Catapult) JSON.

    The output is the ``{"traceEvents": [...]}`` object format that
    both ``chrome://tracing`` and https://ui.perfetto.dev load
    directly: one ``"X"`` (complete) event per span with microsecond
    ``ts``/``dur``, plus ``"M"`` metadata events naming the process
    and per-track threads.

    Each top-level span gets its own track (``tid``) and its subtree
    stays on it.  Span attributes (including the propagated
    ``trace_id``) ride in ``args``.
    """
    trace_id = document.get("trace_id")
    events = []
    track_names = {}
    next_tid = [0]

    def allocate(name: str) -> int:
        next_tid[0] += 1
        track_names[next_tid[0]] = name
        return next_tid[0]

    def emit(span: dict, tid: int) -> None:
        attributes = dict(span.get("attributes") or {})
        if trace_id is not None:
            attributes.setdefault("trace_id", trace_id)
        events.append(
            {
                "name": str(span.get("name", "")),
                "cat": "repro",
                "ph": "X",
                "ts": round(float(span.get("start_seconds", 0.0)) * 1e6, 3),
                "dur": round(float(span.get("seconds", 0.0)) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": attributes,
            }
        )
        for child in span.get("children") or []:
            emit(child, tid)

    for span in document.get("spans") or []:
        emit(span, allocate(str(span.get("name", "span"))))

    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid in sorted(track_names):
        metadata.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": track_names[tid]},
            }
        )
    chrome = {"traceEvents": metadata + events, "displayTimeUnit": "ms"}
    if trace_id is not None:
        chrome["otherData"] = {"trace_id": str(trace_id)}
    return chrome


def write_chrome_trace(document, path: str, storage=None) -> None:
    """Write a trace as Chrome-trace JSON ready for Perfetto.

    ``document`` may be a :class:`~repro.observe.tracer.Tracer`, a
    native trace dict, or an already-converted Chrome document.
    """
    if isinstance(document, Tracer):
        document = document.to_dict()
    if "traceEvents" not in document:
        document = trace_to_chrome(document)
    _atomic_write(
        path, json.dumps(document, indent=2) + "\n", storage=storage
    )


def load_trace(path: str) -> dict:
    """Read back a trace document written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_metrics(path: str) -> dict:
    """Read back a JSON metrics document written by :func:`write_metrics`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
