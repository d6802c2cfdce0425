"""Gate on the supervised runtime's fault-free overhead.

Reads a ``BENCH_supervisor.json`` document (written by
``python -m benchmarks.bench_supervisor --json``) and compares the
``test_supervised_clean`` run against the ``test_bare_pool_clean``
baseline.  Exits non-zero when supervision costs more than the
threshold (default 10%) on a clean run — the price of crash/hang
recovery must be paid only when faults actually happen.

The comparison uses each benchmark's *minimum* round (the statistic
least disturbed by scheduler noise) plus an absolute floor sized for
process-spawn jitter, which dwarfs the sub-millisecond floor the
observer gate uses.

Usage::

    python -m benchmarks.check_supervisor_overhead BENCH_supervisor.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

BASELINE = "test_bare_pool_clean"
CANDIDATE = "test_supervised_clean"

#: Ignore differences below this many seconds regardless of ratio —
#: spawn-context worker startup alone jitters by this much.
ABSOLUTE_FLOOR_SECONDS = 0.5


class OverheadExceeded(RuntimeError):
    """Supervision slowed the clean run past the threshold."""


def _lookup(document: Dict, name: str) -> Dict:
    for entry in document.get("benchmarks", []):
        if entry["name"] == name:
            return entry
    raise KeyError(
        f"benchmark {name!r} not found in document "
        f"(module {document.get('module')!r})"
    )


def check(document: Dict, threshold: float) -> str:
    """Return a verdict line, or raise :class:`OverheadExceeded`."""
    baseline = _lookup(document, BASELINE)["min_seconds"]
    candidate = _lookup(document, CANDIDATE)["min_seconds"]
    overhead = candidate - baseline
    ratio = overhead / baseline if baseline > 0 else 0.0
    verdict = (
        f"supervised clean-run overhead: {overhead * 1000:+.1f}ms "
        f"({ratio * 100:+.2f}%) on a {baseline * 1000:.1f}ms bare-pool "
        f"baseline (threshold {threshold * 100:.0f}%)"
    )
    if overhead > ABSOLUTE_FLOOR_SECONDS and ratio > threshold:
        raise OverheadExceeded(verdict)
    return verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.check_supervisor_overhead",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "document", help="path to BENCH_supervisor.json"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="maximum allowed relative overhead (default: 0.10)",
    )
    args = parser.parse_args(argv)
    with open(args.document, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        verdict = check(document, args.threshold)
    except OverheadExceeded as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
