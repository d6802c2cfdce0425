"""Run bookkeeping, summary statistics, the results document and
``compare``.

``compare`` applies the acceptance rules of a performance change: a
workload whose share of failed operations rises at all regressed; a
gain needs the change to win nine tenths of the paired runs *and* the
medians to differ by more than the parent's own quartile spread; a
metric whose median worsens by more than its ``BENCHMARK.json`` bound
regressed; a metric whose run-to-run spread exceeds its bound is
``unresolved`` unless every run of the change beats every run of the
parent.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from typing import Dict, List, Sequence


class Tally:
    """Operations attempted and failed in one run.

    An operation fails when it raises, answers with a non-2xx status,
    ends in a failed job state, or returns rules that differ from the
    reference; each failure is reported on stderr.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr, flush=True)
        return ok


def quartiles(values: Sequence[float]):
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (``statistics.quantiles(values, n=10)``), or
    NaN for an empty sample."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=10)[8]


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and count of one metric's per-run values."""
    q1, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def result_line(values: Dict[str, float], tally: Tally,
                metrics: Sequence[dict]) -> dict:
    """A run's result: every metric of ``metrics`` (NaN when the run
    could not measure it) and the operation counts.  The run is correct
    when no operation failed and every metric was measured."""
    found = {
        metric["name"]: {
            "value": values.get(metric["name"], math.nan),
            "unit": metric["unit"],
        }
        for metric in metrics
    }
    measured = all(math.isfinite(m["value"]) for m in found.values())
    return {
        "correct": tally.failed == 0 and measured,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": found,
    }


def _filesystem(path: str) -> str:
    """The filesystem type holding ``path`` (from ``/proc/mounts``)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def host_block(state_dir: str) -> dict:
    """Where the numbers were measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "state_dir_filesystem": _filesystem(state_dir),
        "flush_policy": "full fsync (LocalStorage, durable)",
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _worse_by(parent: float, child: float, better: str) -> float:
    """How much worse ``child`` is than ``parent``, as a share of it."""
    change = (child - parent) / abs(parent) if parent else 0.0
    return change if better == "lower" else -change


def verdict(
    parent: Sequence[float],
    child: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """``improved``, ``ok``, ``regressed`` or ``unresolved``.

    Runs are paired by position (run ``i`` of each side used the same
    seed).
    """
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    p_median, c_median = statistics.median(parent), statistics.median(child)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(child)
    pairs = list(zip(parent, child))
    wins = sum(1 for p, c in pairs if beats(c, p))
    if (
        beats(c_median, p_median)
        and wins >= 0.9 * len(pairs)
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        return "improved"
    if _worse_by(p_median, c_median, better) > bound:
        return "regressed"
    spread = max(
        (p_q3 - p_q1) / abs(p_median) if p_median else 0.0,
        (c_q3 - c_q1) / abs(c_median) if c_median else 0.0,
    )
    all_better = all(beats(c, p) for c in child for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def failed_share(entry: dict) -> float:
    """Failed operations of a workload's runs, as a share of attempted."""
    return ratio(entry["failed"], entry["attempted"])


def compare(parent_doc: dict, child_doc: dict, benchmark: dict) -> List[dict]:
    """Per workload on both sides: one row for its failed share, which
    regressed when it rose at all, then one row per end-to-end metric."""
    rows = []
    for workload, parent in parent_doc["workloads"].items():
        child = child_doc["workloads"].get(workload)
        if child is None:
            continue
        rows.append(
            {
                "workload": workload,
                "metric": "failed/attempted",
                "parent": parent,
                "child": child,
                "verdict": (
                    "regressed"
                    if failed_share(child) > failed_share(parent) else "ok"
                ),
            }
        )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p = parent["end_to_end"].get(name)
            c = child["end_to_end"].get(name)
            if p is None or c is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": p,
                    "child": c,
                    "verdict": verdict(
                        p["values"], c["values"],
                        metric["better"], metric["bound"],
                    ),
                }
            )
    return rows


def format_compare(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<20} {'metric':<16} "
        f"{'parent median [q1, q3]':>34} {'child median [q1, q3]':>34} "
        "verdict"
    ]
    for row in rows:
        cells = []
        for side in ("parent", "child"):
            s = row[side]
            if "unit" not in row:  # the failed-share row
                cells.append(f"{s['failed']}/{s['attempted']}")
                continue
            cells.append(
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                f"{row['unit']} n={s['n']}"
            )
        lines.append(
            f"{row['workload']:<20} {row['metric']:<16} "
            f"{cells[0]:>34} {cells[1]:>34} {row['verdict']}"
        )
    return "\n".join(lines)


def median_of(values: Sequence[float]) -> float:
    """The median, or NaN for an empty sample (every try failed)."""
    return statistics.median(values) if values else math.nan


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def medians(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median across rounds of per-layer values."""
    return {
        key: statistics.median(r[key] for r in rounds) for key in rounds[0]
    }
