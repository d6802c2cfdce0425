"""Supervised-runtime overhead and recovery cost (Section 7 engine).

Three measurements back the runtime's contract:

- ``test_bare_pool_clean`` — the partitioned engine on a bare
  spawn-context ``multiprocessing.Pool`` (``supervise=False``), the
  pre-supervisor baseline;
- ``test_supervised_clean`` — the same workload on the supervised
  runtime; :mod:`benchmarks.check_supervisor_overhead` gates the
  fault-free overhead (heartbeats, per-task bookkeeping, the result
  pipes) at 10%;
- ``test_supervised_crash_recovery`` — the same workload with one
  injected worker crash, measuring what a retry-plus-respawn actually
  costs end to end.

Every round mines the exact serial rule set (asserted), so the numbers
never describe a run that silently dropped work.
"""

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from repro.core.dmc_imp import find_implication_rules
from repro.core.partitioned import find_implication_rules_partitioned
from repro.datasets.synthetic import random_matrix
from repro.runtime.faults import WorkerFault, WorkerFaultPlan

THRESHOLD = 0.8
N_PARTITIONS = 4
N_WORKERS = 2


@pytest.fixture(scope="module")
def workload():
    rows = max(200, int(4000 * BENCH_SCALE))
    return random_matrix(rows, 200, density=0.03, seed=BENCH_SEED + 11)


@pytest.fixture(scope="module")
def serial_pairs(workload):
    return find_implication_rules(workload, THRESHOLD).pairs()


def test_bare_pool_clean(benchmark, workload, serial_pairs):
    """Baseline: the unsupervised spawn-context pool."""

    def bare():
        return find_implication_rules_partitioned(
            workload, THRESHOLD, n_partitions=N_PARTITIONS,
            n_workers=N_WORKERS, supervise=False,
        )

    rules = benchmark.pedantic(bare, rounds=3, iterations=1)
    assert rules.pairs() == serial_pairs
    benchmark.extra_info["rules"] = len(rules)


def test_supervised_clean(benchmark, workload, serial_pairs):
    """The supervised runtime with no faults injected."""

    def supervised():
        return find_implication_rules_partitioned(
            workload, THRESHOLD, n_partitions=N_PARTITIONS,
            n_workers=N_WORKERS, supervise=True,
        )

    rules = benchmark.pedantic(supervised, rounds=3, iterations=1)
    assert rules.pairs() == serial_pairs
    benchmark.extra_info["rules"] = len(rules)


def test_supervised_crash_recovery(benchmark, workload, serial_pairs):
    """One injected worker crash per round: retry + respawn cost."""
    plan = WorkerFaultPlan(faults=(
        WorkerFault(
            mode="crash", task_id="implication-part-0001", attempts=1
        ),
    ))

    def crashed():
        return find_implication_rules_partitioned(
            workload, THRESHOLD, n_partitions=N_PARTITIONS,
            n_workers=N_WORKERS, worker_faults=plan,
        )

    rules = benchmark.pedantic(crashed, rounds=2, iterations=1)
    assert rules.pairs() == serial_pairs
    benchmark.extra_info["rules"] = len(rules)


if __name__ == "__main__":
    import sys

    from benchmarks.jsonbench import main

    sys.exit(main(__file__, sys.argv[1:]))
