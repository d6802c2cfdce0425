"""Regression gate over the committed ``BENCH_*.json`` history.

The repo commits one machine-readable benchmark document per module
(written by ``python -m benchmarks.bench_<module> --json``) so the
perf trajectory accumulates per PR.  This gate keeps that trajectory
from silently eroding: it compares a *fresh* run against the committed
document and fails when any benchmark present in both slowed down by
more than the threshold (default 25%).  The statistic compared is the
median, which a single slow round cannot drag; when either document
predates ``median_seconds`` the gate falls back to the mean.

Only benchmarks present in **both** documents are compared — a new
benchmark has no history to regress against, and a deleted one has no
fresh number — and a small absolute floor keeps sub-millisecond
scheduler jitter from flipping the verdict on micro-entries.

Usage (the CI benchmark-smoke recipe)::

    python -m benchmarks.bench_engine_micro --json --out /tmp/fresh
    python -m benchmarks.check_bench_regression \
        BENCH_engine_micro.json /tmp/fresh/BENCH_engine_micro.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

#: Fail when a benchmark's fresh median (or mean, see
#: :func:`center_seconds`) exceeds the committed one by more than this
#: fraction.
DEFAULT_THRESHOLD = 0.25

#: Ignore slowdowns below this many seconds regardless of ratio —
#: micro-benchmarks in the low-millisecond range are jitter-bound.
ABSOLUTE_FLOOR_SECONDS = 0.002


class BenchmarkRegression(RuntimeError):
    """A benchmark slowed down past the threshold."""


def _by_name(document: Dict) -> Dict[str, Dict]:
    return {
        entry["name"]: entry
        for entry in document.get("benchmarks", [])
    }


def center_seconds(
    committed: Dict, fresh: Dict
) -> Tuple[str, float, float]:
    """``(statistic, committed, fresh)`` for one benchmark's entries:
    the medians when both carry one, else the means."""
    key = (
        "median_seconds"
        if "median_seconds" in committed and "median_seconds" in fresh
        else "mean_seconds"
    )
    return key.split("_")[0], committed[key], fresh[key]


def check(
    committed: Dict,
    fresh: Dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Return one verdict line per shared benchmark.

    Raises :class:`BenchmarkRegression` listing every breach, after
    examining all shared benchmarks (so one report names them all).
    """
    if committed.get("module") != fresh.get("module"):
        raise ValueError(
            f"module mismatch: committed {committed.get('module')!r} "
            f"vs fresh {fresh.get('module')!r}"
        )
    baseline_entries = _by_name(committed)
    fresh_entries = _by_name(fresh)
    shared = [
        name for name in baseline_entries if name in fresh_entries
    ]
    if not shared:
        raise ValueError("no benchmarks shared between the documents")

    verdicts: List[str] = []
    breaches: List[str] = []
    for name in shared:
        statistic, baseline, candidate = center_seconds(
            baseline_entries[name], fresh_entries[name]
        )
        delta = candidate - baseline
        ratio = delta / baseline if baseline > 0 else 0.0
        verdict = (
            f"{name}: {statistic} {baseline * 1000:.3f}ms -> "
            f"{candidate * 1000:.3f}ms ({ratio * 100:+.1f}%)"
        )
        if delta > ABSOLUTE_FLOOR_SECONDS and ratio > threshold:
            breaches.append(verdict)
        verdicts.append(verdict)
    if breaches:
        raise BenchmarkRegression(
            f"{len(breaches)} benchmark(s) regressed past "
            f"{threshold * 100:.0f}%:\n  " + "\n  ".join(breaches)
        )
    return verdicts


def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.check_bench_regression",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "committed", help="the committed BENCH_*.json document"
    )
    parser.add_argument(
        "fresh", help="a freshly generated document for the same module"
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help=(
            "maximum tolerated median-time growth "
            f"(default {DEFAULT_THRESHOLD})"
        ),
    )
    args = parser.parse_args(argv)
    try:
        verdicts = check(
            _load(args.committed), _load(args.fresh), args.threshold
        )
    except (BenchmarkRegression, ValueError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    for verdict in verdicts:
        print(verdict)
    print(f"ok: {len(verdicts)} benchmark(s) within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
