"""Crash-point enumeration: exactness at *every* storage operation.

The acceptance property of the durable-storage layer: crash a
checkpointed streaming run after its k-th storage operation, for every
k, restart it, and the mined rules must equal the serial in-memory
engine's.  No hand-picked crash windows;
:func:`repro.runtime.crashpoints.enumerate_crash_points` sweeps them
all (ALICE-style).

Also unit-tests the harness itself: op counting, the crash-forever
contract, ``max_points`` striding, swallowed-crash detection, and the
baseline-vs-expected guard.
"""

from __future__ import annotations

import pytest

from repro.core.dmc_imp import find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import save_transactions
from repro.matrix.stream import (
    FileSource,
    stream_implication_rules,
    stream_similarity_rules,
)
from repro.runtime.crashpoints import (
    CrashPointReport,
    CrashPointResult,
    count_storage_ops,
    enumerate_crash_points,
)
from repro.runtime import SimulatedCrash
from repro.runtime.storage import FaultyStorage

from tests.test_runtime import DEMO_ROWS

ENGINES = {
    "implication": (
        stream_implication_rules,
        find_implication_rules,
        0.8,
    ),
    "similarity": (
        stream_similarity_rules,
        find_similarity_rules,
        0.6,
    ),
}


@pytest.fixture
def demo_matrix() -> BinaryMatrix:
    return BinaryMatrix(DEMO_ROWS, n_columns=8)


@pytest.fixture
def demo_path(tmp_path, demo_matrix) -> str:
    path = str(tmp_path / "demo.txt")
    save_transactions(demo_matrix, path)
    return path


# ----------------------------------------------------------------------
# Harness unit tests (no mining involved).
# ----------------------------------------------------------------------


def _toy_workload(tmp_path):
    """A tiny crash-recoverable workload: an atomically-updated file.

    The 'result' is the file's content if it exists, else 'initial' —
    atomic_write_text guarantees a crash anywhere leaves one of the two
    valid states, and the recovery run (which writes again) always
    converges to 'final'.
    """
    path = str(tmp_path / "state.txt")

    def run(storage):
        storage.makedirs(str(tmp_path / "scratch"))
        storage.atomic_write_text(path, "final")
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    return run


def test_count_storage_ops(tmp_path):
    # makedirs + (open-write, fsync, replace, fsync-dir) = 5 ops.
    assert count_storage_ops(_toy_workload(tmp_path)) == 5


def test_enumerate_crash_points_toy_workload_all_ok(tmp_path):
    report = enumerate_crash_points(_toy_workload(tmp_path))
    assert report.total_ops == 5
    assert len(report.results) == 5
    assert report.failures == []
    assert all(result.crashed for result in report.results)
    assert report.describe_failures() == "all crash points recovered exactly"
    # The schedule names the ops of the clean run.
    assert [op for op, _ in report.schedule] == [
        "makedirs", "open-write", "fsync", "replace", "fsync-dir",
    ]


def test_enumerate_crash_points_max_points_strides(tmp_path):
    report = enumerate_crash_points(_toy_workload(tmp_path), max_points=3)
    indices = [result.op_index for result in report.results]
    assert len(indices) == 3
    assert indices[0] == 1 and indices[-1] == 5  # endpoints always covered
    assert indices == sorted(indices)


def test_enumerate_crash_points_max_points_one(tmp_path):
    report = enumerate_crash_points(_toy_workload(tmp_path), max_points=1)
    assert [result.op_index for result in report.results] == [5]


def test_enumerate_crash_points_detects_swallowed_crash(tmp_path):
    """A workload that eats SimulatedCrash and returns garbage is a
    failure (crashed=False), not a silent pass."""
    path = str(tmp_path / "state.txt")

    def sloppy(storage):
        try:
            storage.atomic_write_text(path, "final")
        except SimulatedCrash:
            pass  # the bug under test: treating a crash as recoverable
        return "wrong"

    # Clean run returns "wrong" consistently, so the baseline matches
    # itself; but every crashed run survives with crashed=False.
    report = enumerate_crash_points(sloppy)
    assert report.total_ops == 4
    assert len(report.failures) == 4
    assert all(not result.crashed for result in report.failures)
    assert "swallowed" in report.describe_failures()


def test_enumerate_crash_points_rejects_wrong_baseline(tmp_path):
    with pytest.raises(ValueError, match="clean run"):
        enumerate_crash_points(
            _toy_workload(tmp_path), expected="something else"
        )


def test_enumerate_crash_points_detects_bad_recovery(tmp_path):
    """A recovery path that loses data shows up as recovered_equal=False."""
    run = _toy_workload(tmp_path)

    def amnesiac_recovery(storage):
        return "initial"  # pretends nothing was ever written

    report = enumerate_crash_points(run, recover=amnesiac_recovery)
    assert len(report.failures) == report.total_ops
    assert all(result.crashed for result in report.failures)
    assert "different" in report.describe_failures()


def test_crash_point_result_ok_property():
    good = CrashPointResult(1, "replace", "x", crashed=True, recovered_equal=True)
    assert good.ok
    assert not CrashPointResult(1, "", "x", True, False).ok
    assert not CrashPointResult(1, "", "x", False, True).ok


def test_empty_schedule_report():
    report = enumerate_crash_points(lambda storage: 42)
    assert report.total_ops == 0
    assert report.results == []
    assert report.failures == []


def test_faulty_storage_schedule_is_deterministic(tmp_path):
    run = _toy_workload(tmp_path)
    first = FaultyStorage()
    run(first)
    second = FaultyStorage()
    run(second)
    assert first.op_log == second.op_log


# ----------------------------------------------------------------------
# The acceptance sweep: the streaming checkpoint.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_streaming_checkpoint_survives_every_crash_point(
    tmp_path, demo_path, demo_matrix, kind
):
    """Crash a checkpointed streaming run at every storage operation;
    a restart must always mine the serial engine's exact rules."""
    stream, serial, threshold = ENGINES[kind]
    expected = sorted(serial(demo_matrix, threshold))
    checkpoint_dir = str(tmp_path / "ckpt")

    def run(storage):
        return sorted(
            stream(
                FileSource(demo_path),
                threshold,
                checkpoint_dir=checkpoint_dir,
                storage=storage,
            )
        )

    report = enumerate_crash_points(run, expected=expected)
    assert report.total_ops > 10  # the sweep actually covers something
    assert report.failures == [], report.describe_failures()


def test_streaming_crash_sweep_with_spill_dir_only(tmp_path, demo_path):
    """No checkpoint at all: recovery is simply a rerun, and it must
    still be exact at every crash point (spill files are scratch)."""
    spill_dir = str(tmp_path / "spill")

    def run(storage):
        return sorted(
            stream_implication_rules(
                FileSource(demo_path),
                0.8,
                spill_dir=spill_dir,
                storage=storage,
            )
        )

    report = enumerate_crash_points(run)
    assert report.total_ops > 0
    assert report.failures == [], report.describe_failures()


def test_bounded_sweep_matches_full_sweep_verdict(tmp_path, demo_path):
    """The CI-bounded sweep exercises a subset of the same schedule."""
    checkpoint_dir = str(tmp_path / "ckpt")

    def run(storage):
        return sorted(
            stream_implication_rules(
                FileSource(demo_path),
                0.8,
                checkpoint_dir=checkpoint_dir,
                storage=storage,
            )
        )

    report = enumerate_crash_points(run, max_points=5)
    assert len(report.results) == 5
    assert report.failures == [], report.describe_failures()
