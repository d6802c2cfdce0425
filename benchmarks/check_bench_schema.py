"""Parse/shape check for the committed ``BENCH_*.json`` documents.

The CI benchmark-smoke job emits one document per surface (in-memory
engine, streaming, service, live) via :mod:`benchmarks.jsonbench`, and the repo
commits them at the root so perf history accumulates per PR.  This
checker keeps that trajectory honest: every document must parse, carry
the version-1 schema, and hold plausible statistics — no empty runs,
no negative timings, no ``min > mean``.

Usage::

    python -m benchmarks.check_bench_schema BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

EXPECTED_VERSION = 1

#: Keys every per-benchmark entry must carry.
ENTRY_KEYS = (
    "name", "mean_seconds", "min_seconds", "stddev_seconds",
    "rounds", "extra_info",
)


def check_document(document: Dict, label: str = "document") -> List[str]:
    """Return a list of problems (empty when the document is sound)."""
    problems: List[str] = []

    def bad(message: str) -> None:
        problems.append(f"{label}: {message}")

    if document.get("version") != EXPECTED_VERSION:
        bad(
            f"version is {document.get('version')!r}, "
            f"expected {EXPECTED_VERSION}"
        )
    module = document.get("module")
    if not isinstance(module, str) or not module.startswith("bench_"):
        bad(f"module is {module!r}, expected a 'bench_*' string")
    scale = document.get("scale")
    if not isinstance(scale, (int, float)) or scale <= 0:
        bad(f"scale is {scale!r}, expected a positive number")
    if not isinstance(document.get("seed"), int):
        bad(f"seed is {document.get('seed')!r}, expected an int")

    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        bad("benchmarks is empty or not a list")
        return problems

    seen = set()
    for index, entry in enumerate(benchmarks):
        where = f"benchmarks[{index}]"
        if not isinstance(entry, dict):
            bad(f"{where} is not an object")
            continue
        missing = [key for key in ENTRY_KEYS if key not in entry]
        if missing:
            bad(f"{where} is missing {missing}")
            continue
        name = entry["name"]
        if not isinstance(name, str) or not name:
            bad(f"{where} has a bad name: {name!r}")
        elif name in seen:
            bad(f"{where} duplicates benchmark name {name!r}")
        else:
            seen.add(name)
        for key in (
            "mean_seconds", "min_seconds", "stddev_seconds",
            "median_seconds",
        ):
            if key not in entry:  # the median is optional
                continue
            value = entry[key]
            if not isinstance(value, (int, float)) or value < 0:
                bad(f"{where}.{key} is {value!r}, expected >= 0")
        if (
            isinstance(entry["min_seconds"], (int, float))
            and isinstance(entry["mean_seconds"], (int, float))
            and entry["min_seconds"] > entry["mean_seconds"] * (1 + 1e-9)
        ):
            bad(f"{where}: min_seconds exceeds mean_seconds")
        rounds = entry["rounds"]
        if not isinstance(rounds, int) or rounds < 1:
            bad(f"{where}.rounds is {rounds!r}, expected >= 1")
        if not isinstance(entry["extra_info"], dict):
            bad(f"{where}.extra_info is not an object")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.check_bench_schema",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "documents", nargs="+", metavar="BENCH.json",
        help="BENCH_*.json documents to validate",
    )
    args = parser.parse_args(argv)
    failures = 0
    for path in args.documents:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"FAIL: {path}: cannot parse: {error}", file=sys.stderr)
            failures += 1
            continue
        problems = check_document(document, label=path)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            failures += 1
        else:
            count = len(document["benchmarks"])
            print(f"OK: {path}: {count} benchmarks, schema v1")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
