"""Observability for mining runs: tracing, metrics, progress.

The paper's headline claims are quantitative — candidate counts
collapsing as misses accrue, the counter array's peak memory,
the bitmap-jump crossover — and this package makes a live run show
them.  Zero dependency, and free when disabled: the hot loop pays one
attribute check per row.

- :mod:`~repro.observe.tracer` — nested wall-clock spans (pass-1
  scan, spill, per-bucket pass-2 replay, the bitmap tail) exported as
  a JSON trace tree;
- :mod:`~repro.observe.metrics` — counters / gauges / histograms with
  Prometheus-style labels, JSON and text-exposition exporters, and
  folding of :class:`~repro.core.stats.PipelineStats` onto metric
  families;
- :mod:`~repro.observe.progress` — the callback protocol the scan
  engine reports through, its null object, and a console sink;
- :mod:`~repro.observe.run` — :class:`RunObserver`, the bundle the
  mining entry points accept as ``observer=``;
- :mod:`~repro.observe.exporters` — atomic file writers
  (``--metrics`` / ``--trace`` in the CLI);
- :mod:`~repro.observe.journal` — append-only JSONL run journal
  (``journal_path=`` / ``--journal``, ``python -m repro journal``);
- :mod:`~repro.observe.live` / :mod:`~repro.observe.server` — the
  in-flight run status and the ``/metrics`` / ``/healthz`` /
  ``/runs/<run_id>`` HTTP endpoint (``serve_metrics_port=`` /
  ``--serve-metrics``).

Quickstart::

    from repro import RunObserver, mine

    observer = RunObserver()
    result = mine(matrix, task="implication", threshold=0.9,
                  observer=observer)
    print(observer.metrics.to_prometheus())
    print(observer.tracer.to_json())
"""

from repro.observe.exporters import (
    load_metrics,
    load_trace,
    metrics_format_for,
    trace_to_chrome,
    write_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.observe.journal import (
    RunJournal,
    follow_journal,
    read_journal,
    summarize_journal,
    tail_journal,
)
from repro.observe.live import LiveRunStatus
from repro.observe.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.progress import (
    NULL_OBSERVER,
    ConsoleProgress,
    NullObserver,
    ProgressObserver,
)
from repro.observe.profiler import SamplingProfiler
from repro.observe.run import RunObserver, new_run_id
from repro.observe.server import MetricsServer, route_label
from repro.observe.tracer import Span, Tracer

__all__ = [
    "ConsoleProgress",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LiveRunStatus",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_OBSERVER",
    "NullObserver",
    "ProgressObserver",
    "RunJournal",
    "RunObserver",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "follow_journal",
    "load_metrics",
    "load_trace",
    "metrics_format_for",
    "new_run_id",
    "read_journal",
    "route_label",
    "summarize_journal",
    "tail_journal",
    "trace_to_chrome",
    "write_chrome_trace",
    "write_metrics",
    "write_trace",
]
