"""Micro-benchmarks of the engine's building blocks.

Not a paper figure — these isolate the costs the paper reasons about:
pure scan throughput, the 100%-rule fast path vs the generic engine,
the DMC-bitmap tail, and the stream carrier's pass 1.  The vector
entries scan in the Section 4.1 order, as the mining pipeline always
does.
"""

import statistics

import pytest

from repro.core.miss_counting import (
    BitmapConfig,
    miss_counting_scan,
    zero_miss_scan,
)
from repro.core.policies import (
    HundredPercentPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.stats import ScanStats
from repro.core.vector import vector_scan
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import random_matrix
from repro.experiments.figures import SCALED_BITMAP
from repro.matrix.reorder import scan_order
from repro.matrix.stream import BucketSpill, FileSource, _first_scan


@pytest.fixture(scope="module")
def workload():
    return random_matrix(3000, 300, density=0.03, seed=1)


#: Copies of the workload's rows in the pass-1 file: enough that one
#: pass takes tens of milliseconds, far above the regression gate's
#: 2 ms floor.
PRESCAN_COPIES = 10


@pytest.fixture(scope="module")
def prescan_file(workload, tmp_path_factory):
    """The workload as a transactions file, its rows ``PRESCAN_COPIES``
    times over."""
    path = str(tmp_path_factory.mktemp("prescan") / "rows.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"#dmc-matrix\n#columns {workload.n_columns}\n")
        for _ in range(PRESCAN_COPIES):
            for _, row in workload.iter_rows():
                handle.write(" ".join(map(str, row)) + "\n")
    return path


def test_micro_prescan(benchmark, workload, prescan_file, tmp_path_factory):
    """Pass 1 of the stream carrier: parse the file, count ones per
    column and spill every row to its density bucket."""
    spill_dir = str(tmp_path_factory.mktemp("spill"))

    def prescan():
        with BucketSpill(directory=spill_dir) as spill:
            return _first_scan(FileSource(prescan_file), spill)

    ones = benchmark.pedantic(
        prescan, rounds=15, iterations=1, warmup_rounds=1
    )
    assert ones.sum() == PRESCAN_COPIES * workload.nnz


def test_micro_generic_scan_imp(benchmark, workload):
    policy = ImplicationPolicy(workload.column_ones(), 0.8)
    rules = benchmark.pedantic(
        miss_counting_scan, args=(workload, policy), rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_generic_scan_sim(benchmark, workload):
    policy = SimilarityPolicy(workload.column_ones(), 0.6)
    rules = benchmark.pedantic(
        miss_counting_scan, args=(workload, policy), rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_vector_scan_imp_ordered(benchmark, workload):
    """The blocked numpy engine on the same workload as the generic
    implication scan, in scan order.  One warmup round keeps one-time
    numpy/BLAS initialization out of the steady-state numbers."""
    policy = ImplicationPolicy(workload.column_ones(), 0.8)
    rules = benchmark.pedantic(
        vector_scan, args=(workload, policy),
        kwargs={"order": scan_order(workload)}, rounds=7, iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_vector_scan_sim_ordered(benchmark, workload):
    policy = SimilarityPolicy(workload.column_ones(), 0.6)
    rules = benchmark.pedantic(
        vector_scan, args=(workload, policy),
        kwargs={"order": scan_order(workload)}, rounds=7, iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_zero_miss_fast_path(benchmark, workload):
    """Section 4.3's id-set fast path vs the generic engine."""
    policy = HundredPercentPolicy(workload.column_ones())
    rules = benchmark.pedantic(
        zero_miss_scan, args=(workload, policy), rounds=3, iterations=1
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_zero_miss_generic_equivalent(benchmark, workload):
    policy = HundredPercentPolicy(workload.column_ones())
    rules = benchmark.pedantic(
        miss_counting_scan, args=(workload, policy), rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


@pytest.fixture(scope="module")
def overhead_workload():
    """Smaller matrix so the overhead pair gets many stable rounds."""
    return random_matrix(1200, 200, density=0.03, seed=2)


def test_micro_overhead_no_hooks(benchmark, overhead_workload):
    """Baseline for the observer-overhead gate: no observer at all."""
    policy = ImplicationPolicy(overhead_workload.column_ones(), 0.8)
    rules = benchmark.pedantic(
        miss_counting_scan,
        args=(overhead_workload, policy),
        rounds=15,
        iterations=1,
        warmup_rounds=2,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_overhead_null_observer(benchmark, overhead_workload):
    """Disabled observer must cost one attribute check per row (<5%)."""
    from repro.observe import NullObserver

    policy = ImplicationPolicy(overhead_workload.column_ones(), 0.8)
    rules = benchmark.pedantic(
        miss_counting_scan,
        args=(overhead_workload, policy),
        kwargs={"observer": NullObserver()},
        rounds=15,
        iterations=1,
        warmup_rounds=2,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_micro_overhead_full_telemetry(
    benchmark, overhead_workload, tmp_path_factory
):
    """Full telemetry on: journal + live server + curve sampling (<5%)."""
    from repro.observe import (
        LiveRunStatus,
        MetricsServer,
        RunJournal,
        RunObserver,
    )

    policy = ImplicationPolicy(overhead_workload.column_ones(), 0.8)
    scratch = tmp_path_factory.mktemp("telemetry")
    journal = RunJournal(str(scratch / "run.jsonl"), "bench-run")
    status = LiveRunStatus("bench-run")
    observer = RunObserver(
        journal=journal, status=status, run_id="bench-run",
    )
    server = MetricsServer(observer.metrics, status=status)
    try:
        rules = benchmark.pedantic(
            miss_counting_scan,
            args=(overhead_workload, policy),
            kwargs={"observer": observer},
            rounds=15,
            iterations=1,
            warmup_rounds=2,
        )
    finally:
        server.close()
        journal.close()
    benchmark.extra_info["rules"] = len(rules)


def test_micro_overhead_trace_profile(
    benchmark, overhead_workload, tmp_path_factory
):
    """Tracing observer + sampling profiler both on (<5%).

    The profiler samples the benchmark thread itself, so every round
    runs under live 100 Hz stack sampling — the configuration
    ``MiningConfig(profile=)`` turns on.
    """
    from repro.observe import RunObserver, SamplingProfiler

    policy = ImplicationPolicy(overhead_workload.column_ones(), 0.8)
    scratch = tmp_path_factory.mktemp("profile")
    observer = RunObserver(run_id="bench-run")
    profiler = SamplingProfiler(str(scratch / "bench.folded")).start()
    try:
        rules = benchmark.pedantic(
            miss_counting_scan,
            args=(overhead_workload, policy),
            kwargs={"observer": observer},
            rounds=15,
            iterations=1,
            warmup_rounds=2,
        )
    finally:
        profiler.stop()
    benchmark.extra_info["rules"] = len(rules)
    benchmark.extra_info["profile_samples"] = profiler.samples


@pytest.fixture(scope="module")
def plink_smoke():
    """plinkT at the end-to-end benchmark's smoke size, in scan order."""
    matrix = load_dataset("plinkT", scale=0.5, seed=0)
    return matrix, scan_order(matrix)


def test_micro_bitmap_tail(benchmark, plink_smoke):
    """A scan that hands its last 64 rows (SCALED_BITMAP's window) to
    the Algorithm 4.1 tail.  At this size the counter array stays under
    SCALED_BITMAP's budget, so a zero budget fires the switch; the tail
    then finishes most lists and emits most of the rules."""
    matrix, order = plink_smoke
    policy = ImplicationPolicy(matrix.column_ones(), "3/4")
    config = BitmapConfig(
        switch_rows=SCALED_BITMAP.switch_rows, memory_budget_bytes=0
    )
    tail_seconds = []

    def scan():
        stats = ScanStats()
        rules = miss_counting_scan(
            matrix, policy, order=order, stats=stats, bitmap=config
        )
        tail_seconds.append(stats.bitmap_seconds)
        return rules, stats

    rules, stats = benchmark.pedantic(
        scan, rounds=15, iterations=1, warmup_rounds=1
    )
    assert stats.bitmap_switch_at is not None and len(rules) > 0
    benchmark.extra_info["rules"] = len(rules)
    benchmark.extra_info["tail_median_seconds"] = statistics.median(
        tail_seconds
    )


if __name__ == "__main__":
    import sys

    from benchmarks.jsonbench import main

    sys.exit(main(__file__, sys.argv[1:]))
