"""Continuous mining: one delta apply against a one-shot mine.

A live batch is a re-mine: :class:`~repro.live.miner.LiveMiner`
appends the batch's rows, mines every row seen so far with the
default plan and diffs the result against the previous rule set.  So
what these benchmarks bound is the live path's overhead on top of the
mine it runs (WAL commit, label mapping, the CSR append and the rule
diff), not a saving over a mine.  Two workloads, each measured as a
pair:

- *rule-poor* — 60 market-basket items with one planted rule at 3/4:
  ``8000 * BENCH_SCALE`` seed rows (at least 400) plus a delta of 2%
  of them;
- *rule-rich* — the first 400 rows of ``Wlog`` at scale 2 at 4/5
  (about 339k rules) plus a 10-row delta, at every ``BENCH_SCALE``.

Per workload:

- ``test_full_remine*`` — a one-shot ``repro.mine()`` over the seed
  and the delta together;
- ``test_delta_apply*`` — submitting the delta to a warm
  :class:`~repro.live.miner.LiveMiner` that holds the seed (WAL
  commit + re-mine + rule diff).

Each entry's ``extra_info`` also carries the median seeding cost: a
one-shot mine of the seed rows (``seed_mine_seconds``) next to
seeding a fresh miner with them (``seed_seconds``).

Parity is asserted after the timed rounds: the warm miner's rule set
must equal the one-shot mine of the concatenated rows, so the numbers
never describe a miner that drifted.
"""

import shutil
import statistics
import tempfile
import time

import pytest

import repro
from benchmarks.conftest import BENCH_SCALE, BENCH_SEED
from repro.datasets.registry import load_dataset
from repro.live import LiveMiner

ROUNDS = 5


@pytest.fixture(scope="module")
def rule_poor():
    import random

    rng = random.Random(BENCH_SEED + 31)
    base_rows = max(400, int(8000 * BENCH_SCALE))
    delta_rows = max(20, base_rows // 50)
    items = [f"item-{k:03d}" for k in range(60)]

    def make(n):
        data = []
        for _ in range(n):
            row = set(rng.sample(items, rng.randint(2, 6)))
            if "item-000" in row and rng.random() < 0.9:
                row.add("item-001")
            data.append(sorted(row))
        return data

    return "implication", "3/4", make(base_rows), make(delta_rows)


@pytest.fixture(scope="module")
def rule_rich():
    matrix = load_dataset("Wlog", scale=2, seed=BENCH_SEED)
    rows = [[str(column) for column in matrix.row(i)] for i in range(410)]
    return "implication", "4/5", rows[:400], rows[400:]


def one_shot(task, threshold, rows):
    return repro.mine(rows, task=task, threshold=threshold).rules


def median_seconds(run):
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def full_remine(benchmark, workload):
    """The one-shot mine over every row, which each live batch runs."""
    task, threshold, base, delta = workload
    everything = base + delta

    rules = benchmark.pedantic(
        lambda: one_shot(task, threshold, everything),
        rounds=ROUNDS, iterations=1,
    )
    benchmark.extra_info["rows"] = len(everything)
    benchmark.extra_info["rules"] = len(rules)
    benchmark.extra_info["seed_mine_seconds"] = median_seconds(
        lambda: one_shot(task, threshold, base)
    )


def delta_apply(benchmark, workload):
    """Submitting the same delta to a warm live miner."""
    task, threshold, base, delta = workload
    roots, seeding = [], []

    def warm_miner():
        root = tempfile.mkdtemp(prefix="bench-live-")
        roots.append(root)
        miner = LiveMiner(root, task, threshold, snapshot_every=1000)
        start = time.perf_counter()
        miner.submit(1, base)
        seeding.append(time.perf_counter() - start)
        return (miner,), {}

    def apply_delta(miner):
        miner.submit(2, delta)
        return miner

    try:
        miner = benchmark.pedantic(
            apply_delta, setup=warm_miner, rounds=ROUNDS, iterations=1
        )
        # Exactness: the timed path produced the one-shot rule set.
        assert miner.rules() == one_shot(task, threshold, base + delta)
        benchmark.extra_info["delta_rows"] = len(delta)
        benchmark.extra_info["base_rows"] = len(base)
        benchmark.extra_info["rules"] = len(miner.rules())
        benchmark.extra_info["seed_seconds"] = statistics.median(seeding)
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)


def test_full_remine(benchmark, rule_poor):
    full_remine(benchmark, rule_poor)


def test_delta_apply(benchmark, rule_poor):
    delta_apply(benchmark, rule_poor)


def test_full_remine_rule_rich(benchmark, rule_rich):
    full_remine(benchmark, rule_rich)


def test_delta_apply_rule_rich(benchmark, rule_rich):
    delta_apply(benchmark, rule_rich)


if __name__ == "__main__":
    import sys

    from benchmarks.jsonbench import main

    sys.exit(main(__file__, sys.argv[1:]))
