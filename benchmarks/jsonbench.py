"""Machine-readable benchmark emission (``--json``).

Every ``bench_*`` module doubles as a command-line tool::

    BENCH_SCALE=0.2 python -m benchmarks.bench_engine_micro --json

which runs the module's benchmarks in-process (through pytest +
pytest-benchmark) and writes ``BENCH_<name>.json`` next to the current
directory — a stable, versioned document the CI benchmark-smoke job
archives and :mod:`benchmarks.check_overhead` consumes:

.. code-block:: json

    {"version": 1, "module": "bench_engine_micro",
     "scale": 1.0, "seed": 0,
     "benchmarks": [{"name": "...", "mean_seconds": 0.01,
                     "median_seconds": 0.0098,
                     "min_seconds": 0.009, "stddev_seconds": 0.001,
                     "rounds": 5, "extra_info": {}}]}

``median_seconds`` is what :mod:`benchmarks.check_bench_regression`
gates on; documents written before it existed carry only the mean.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from typing import Dict, List, Optional

SCHEMA_VERSION = 1


def convert(raw: Dict, module_name: str) -> Dict:
    """Reduce a pytest-benchmark JSON document to the BENCH_ schema."""
    from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

    benchmarks: List[Dict] = []
    for entry in raw.get("benchmarks", []):
        stats = entry["stats"]
        benchmarks.append(
            {
                "name": entry["name"],
                "mean_seconds": stats["mean"],
                "median_seconds": stats["median"],
                "min_seconds": stats["min"],
                "stddev_seconds": stats["stddev"],
                "rounds": stats["rounds"],
                "extra_info": entry.get("extra_info", {}),
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "module": module_name,
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "benchmarks": benchmarks,
    }


def main(module_file: str, argv: Optional[List[str]] = None) -> int:
    """CLI for one benchmark module; returns the process exit code."""
    module_name = os.path.splitext(os.path.basename(module_file))[0]
    stem = (
        module_name[len("bench_"):]
        if module_name.startswith("bench_")
        else module_name
    )
    parser = argparse.ArgumentParser(
        prog=f"python -m benchmarks.{module_name}",
        description=(
            "Run this module's benchmarks and write "
            f"BENCH_{stem}.json (set BENCH_SCALE for a quick pass)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help=f"run the benchmarks and write BENCH_{stem}.json",
    )
    parser.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the output document (default: cwd)",
    )
    args = parser.parse_args(argv)
    if not args.json:
        parser.error("pass --json to run and emit the JSON document")

    import pytest

    with tempfile.TemporaryDirectory(prefix="jsonbench-") as scratch:
        raw_path = os.path.join(scratch, "raw.json")
        code = pytest.main(
            [
                module_file,
                "-q",
                "-p", "no:cacheprovider",
                f"--benchmark-json={raw_path}",
            ]
        )
        if code != 0:
            return int(code)
        with open(raw_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)

    document = convert(raw, module_name)
    out_path = os.path.join(args.out, f"BENCH_{stem}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(document['benchmarks'])} benchmarks to {out_path}")
    return 0
