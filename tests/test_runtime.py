"""Fault tolerance: checkpoints, resume, guards, retries, fault injection.

The headline property (ISSUE acceptance): a streaming run killed
mid-pass-2 resumes from its checkpoint and produces a RuleSet exactly
equal to the uninterrupted run's — for both pipelines — without
re-reading the source.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import save_transactions
from repro.matrix.stream import (
    BucketSpill,
    FileSource,
    IterableSource,
    MatrixSource,
    SourceNotReiterableError,
    stream_implication_rules,
    stream_similarity_rules,
)
from repro.mining.export import rules_to_json
from repro.observe import ProgressObserver
from repro.runtime import faults
from repro.runtime.checkpoint import (
    CheckpointCorrupted,
    CheckpointStale,
    CheckpointStore,
    source_fingerprint,
)
from repro.runtime.faults import Fault, FaultPlan, SimulatedCrash
from repro.runtime.guards import (
    MemoryGuard,
    graceful_interrupts,
    retry_io,
)

from tests.conftest import random_binary_matrix

# ----------------------------------------------------------------------
# Fixtures: a deterministic matrix with non-trivial rules, on disk.
# ----------------------------------------------------------------------

# Column 7 duplicates column 0, guaranteeing 100%-similar pairs; the
# modular pattern supplies plenty of partial-confidence structure.
DEMO_ROWS = tuple(
    tuple(
        sorted(
            {i % 7, (i * 3) % 7, (i * i) % 7}
            | ({7} if i % 7 == 0 else set())
        )
    )
    for i in range(18)
)

STREAMERS = {
    "implication": (stream_implication_rules, 0.8),
    "similarity": (stream_similarity_rules, 0.6),
}


@pytest.fixture
def demo_matrix() -> BinaryMatrix:
    return BinaryMatrix(DEMO_ROWS, n_columns=8)


@pytest.fixture
def demo_path(tmp_path, demo_matrix) -> str:
    path = str(tmp_path / "demo.txt")
    save_transactions(demo_matrix, path)
    return path


class CountingFileSource(FileSource):
    """A FileSource that counts how often the file is iterated."""

    def __init__(self, path, **kwargs):
        super().__init__(path, **kwargs)
        self.iterations = 0

    def iter_rows(self):
        self.iterations += 1
        return super().iter_rows()


# ----------------------------------------------------------------------
# The headline acceptance test: crash mid-pass-2, resume, equal rules.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(STREAMERS))
def test_crash_mid_pass2_resumes_to_identical_rules(
    tmp_path, demo_path, kind
):
    stream, threshold = STREAMERS[kind]
    baseline = stream(FileSource(demo_path), threshold)
    assert len(baseline) > 0

    checkpoint_dir = str(tmp_path / "ckpt")
    plan = FaultPlan([Fault("pass2.row", first=5, error=SimulatedCrash)])
    with faults.install(plan):
        with pytest.raises(SimulatedCrash):
            stream(
                FileSource(demo_path),
                threshold,
                checkpoint_dir=checkpoint_dir,
            )
    assert plan.fired.get("pass2.row") == 1
    assert CheckpointStore(checkpoint_dir).has_checkpoint()

    resumed_source = CountingFileSource(demo_path)
    resumed = stream(
        resumed_source, threshold, checkpoint_dir=checkpoint_dir
    )
    assert resumed == baseline
    # Pass 1 was genuinely skipped: the source was never re-read.
    assert resumed_source.iterations == 0
    # A completed run retires its checkpoint.
    assert not CheckpointStore(checkpoint_dir).has_checkpoint()


@pytest.mark.parametrize("kind", sorted(STREAMERS))
def test_crash_mid_pass1_leaves_no_checkpoint(tmp_path, demo_path, kind):
    stream, threshold = STREAMERS[kind]
    baseline = stream(FileSource(demo_path), threshold)

    checkpoint_dir = str(tmp_path / "ckpt")
    plan = FaultPlan([Fault("pass1.row", first=3, error=SimulatedCrash)])
    with faults.install(plan):
        with pytest.raises(SimulatedCrash):
            stream(
                FileSource(demo_path),
                threshold,
                checkpoint_dir=checkpoint_dir,
            )
    store = CheckpointStore(checkpoint_dir)
    assert not store.has_checkpoint()

    # The next run rescans from scratch and still gets the right answer.
    source = CountingFileSource(demo_path)
    assert stream(source, threshold, checkpoint_dir=checkpoint_dir) == baseline
    assert source.iterations == 1


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(STREAMERS))
def test_crash_at_every_pass2_row_resumes_exactly(tmp_path, kind):
    """Sweep the crash position across the whole second pass."""
    stream, threshold = STREAMERS[kind]
    matrix = random_binary_matrix(seed=2024, max_rows=30, max_columns=10)
    path = str(tmp_path / "sweep.txt")
    save_transactions(matrix, path)
    baseline = stream(FileSource(path), threshold)

    nonempty = sum(1 for _, row in matrix.iter_rows() if row)
    checkpoint_dir = str(tmp_path / "ckpt")
    for position in range(1, 2 * nonempty + 2, 3):
        plan = FaultPlan(
            [Fault("pass2.row", first=position, error=SimulatedCrash)]
        )
        with faults.install(plan):
            try:
                crashed = stream(
                    FileSource(path),
                    threshold,
                    checkpoint_dir=checkpoint_dir,
                )
            except SimulatedCrash:
                crashed = None
        if crashed is not None:
            # Both passes replay fewer rows than this position; the run
            # completed untouched.
            assert crashed == baseline
            continue
        resumed = stream(
            FileSource(path), threshold, checkpoint_dir=checkpoint_dir
        )
        assert resumed == baseline, f"mismatch after crash at {position}"


# ----------------------------------------------------------------------
# Checkpoint store: roundtrip, staleness, corruption.
# ----------------------------------------------------------------------


def _checkpointed_run(demo_path, checkpoint_dir, threshold=0.8):
    """Run pass 1 with a checkpoint and crash immediately in pass 2."""
    plan = FaultPlan([Fault("pass2.row", first=1, error=SimulatedCrash)])
    with faults.install(plan):
        with pytest.raises(SimulatedCrash):
            stream_implication_rules(
                FileSource(demo_path),
                threshold,
                checkpoint_dir=checkpoint_dir,
            )


def test_checkpoint_roundtrip(tmp_path, demo_path, demo_matrix):
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)

    store = CheckpointStore(checkpoint_dir)
    source = FileSource(demo_path)
    fingerprint = source_fingerprint(source)
    params = {"kind": "implication", "threshold": "4/5"}
    checkpoint = store.load_pass1(fingerprint, params)
    assert checkpoint is not None
    assert checkpoint.ones == list(demo_matrix.column_ones())
    assert checkpoint.rows_spilled == demo_matrix.n_rows
    assert sum(bucket.rows for bucket in checkpoint.buckets) == (
        demo_matrix.n_rows
    )
    for bucket in checkpoint.buckets:
        path = os.path.join(store.buckets_directory, bucket.name)
        assert os.path.getsize(path) == bucket.size_bytes


def test_load_pass1_returns_none_when_absent(tmp_path):
    store = CheckpointStore(str(tmp_path / "empty"))
    assert store.load_pass1({"kind": "file"}, {}) is None
    assert not store.has_checkpoint()


def test_checkpoint_stale_on_changed_params_and_source(
    tmp_path, demo_path, demo_matrix
):
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    fingerprint = source_fingerprint(FileSource(demo_path))
    good = {"kind": "implication", "threshold": "4/5"}

    with pytest.raises(CheckpointStale):
        store.load_pass1(
            fingerprint, {"kind": "implication", "threshold": "9/10"}
        )
    with pytest.raises(CheckpointStale):
        store.load_pass1(dict(fingerprint, size=1), good)

    # Rewriting the source changes its mtime/size fingerprint.
    save_transactions(demo_matrix, demo_path)
    with open(demo_path, "a", encoding="utf-8") as handle:
        handle.write("0 1\n")
    with pytest.raises(CheckpointStale):
        store.load_pass1(source_fingerprint(FileSource(demo_path)), good)


def test_checkpoint_stale_on_version_bump(tmp_path, demo_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    with open(store.manifest_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["version"] = 999
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(CheckpointStale):
        store.load_pass1(
            source_fingerprint(FileSource(demo_path)),
            {"kind": "implication", "threshold": "4/5"},
        )


def test_checkpoint_corrupted_manifest_and_buckets(tmp_path, demo_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    fingerprint = source_fingerprint(FileSource(demo_path))
    params = {"kind": "implication", "threshold": "4/5"}

    checkpoint = store.load_pass1(fingerprint, params)
    bucket = next(b for b in checkpoint.buckets if b.rows)
    bucket_path = os.path.join(store.buckets_directory, bucket.name)

    # Truncated bucket -> size mismatch.
    original = open(bucket_path, "rb").read()
    with open(bucket_path, "wb") as handle:
        handle.write(original[:-2])
    with pytest.raises(CheckpointCorrupted):
        store.load_pass1(fingerprint, params)

    # Same size, different bytes -> checksum mismatch.
    with open(bucket_path, "wb") as handle:
        handle.write(b"9" * len(original))
    with pytest.raises(CheckpointCorrupted):
        store.load_pass1(fingerprint, params)

    # Missing bucket.
    os.remove(bucket_path)
    with pytest.raises(CheckpointCorrupted):
        store.load_pass1(fingerprint, params)

    # Garbage manifest.
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    with pytest.raises(CheckpointCorrupted):
        store.load_pass1(fingerprint, params)


def test_pipeline_discards_bad_checkpoint_and_rescans(tmp_path, demo_path):
    """A stale/corrupt checkpoint must trigger a silent full rescan."""
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        handle.write("{not json")

    source = CountingFileSource(demo_path)
    rules = stream_implication_rules(
        source, 0.8, checkpoint_dir=checkpoint_dir
    )
    assert rules == baseline
    assert source.iterations == 1  # full rescan, not resume


def test_torn_manifest_at_every_byte_boundary(tmp_path, demo_path):
    """A manifest cut at *any* byte boundary is never trusted.

    A crash mid-write (on a filesystem without atomic rename, or a
    partial page flush) can leave any prefix of the manifest on disk.
    Every prefix must read back as "no checkpoint" or a typed
    :class:`CheckpointError` — never a parse crash, and never a bogus
    resume.
    """
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    with open(store.manifest_path, "rb") as handle:
        manifest = handle.read()
    assert len(manifest) > 2

    source = FileSource(demo_path)
    fingerprint = source_fingerprint(source)
    params = {"kind": "implication", "threshold": "4/5"}

    for cut in range(len(manifest)):
        with open(store.manifest_path, "wb") as handle:
            handle.write(manifest[:cut])
        try:
            checkpoint = store.load_pass1(fingerprint, params)
        except (CheckpointCorrupted, CheckpointStale):
            continue
        assert checkpoint is None, (
            f"a manifest torn at byte {cut} was accepted as a checkpoint"
        )

    # The intact manifest still loads — the sweep did not wreck the store.
    with open(store.manifest_path, "wb") as handle:
        handle.write(manifest)
    assert store.load_pass1(fingerprint, params) is not None


def test_pipeline_recovers_from_torn_manifest(tmp_path, demo_path):
    """End-to-end on a strided subset of tear points: the pipeline
    silently rescans from scratch and mines the exact baseline."""
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    with open(store.manifest_path, "rb") as handle:
        manifest = handle.read()

    for cut in range(0, len(manifest), max(1, len(manifest) // 6)):
        os.makedirs(checkpoint_dir, exist_ok=True)
        with open(store.manifest_path, "wb") as handle:
            handle.write(manifest[:cut])
        source = CountingFileSource(demo_path)
        rules = stream_implication_rules(
            source, 0.8, checkpoint_dir=checkpoint_dir
        )
        assert rules == baseline
        assert source.iterations == 1  # full rescan, never a fake resume


def test_checkpoint_for_other_threshold_is_not_reused(tmp_path, demo_path):
    baseline = stream_implication_rules(FileSource(demo_path), 0.7)
    checkpoint_dir = str(tmp_path / "ckpt")
    _checkpointed_run(demo_path, checkpoint_dir, threshold=0.8)

    source = CountingFileSource(demo_path)
    rules = stream_implication_rules(
        source, 0.7, checkpoint_dir=checkpoint_dir
    )
    assert rules == baseline
    assert source.iterations == 1


# ----------------------------------------------------------------------
# Transient-fault retries.
# ----------------------------------------------------------------------


def test_transient_spill_open_faults_are_retried(demo_path):
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    stats = PipelineStats()
    plan = FaultPlan([Fault("spill.open", first=1, count=2)])
    with faults.install(plan):
        rules = stream_implication_rules(
            FileSource(demo_path), 0.8, stats=stats
        )
    assert rules == baseline
    assert plan.fired["spill.open"] == 2
    assert stats.hundred_percent_scan.io_retries == 2


def test_persistent_spill_open_fault_propagates(demo_path):
    plan = FaultPlan([Fault("spill.open", first=1, count=10)])
    with faults.install(plan):
        with pytest.raises(OSError):
            stream_implication_rules(FileSource(demo_path), 0.8)


def test_transient_checkpoint_save_fault_is_retried(tmp_path, demo_path):
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    checkpoint_dir = str(tmp_path / "ckpt")
    plan = FaultPlan([Fault("checkpoint.save", first=1, count=2)])
    with faults.install(plan):
        rules = stream_implication_rules(
            FileSource(demo_path), 0.8, checkpoint_dir=checkpoint_dir
        )
    assert rules == baseline
    assert plan.fired["checkpoint.save"] == 2


def test_retry_io_backs_off_then_succeeds():
    delays = []
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError("transient")
        return "done"

    assert (
        retry_io(flaky, attempts=3, base_delay=0.5, sleep=delays.append)
        == "done"
    )
    assert delays == [0.5, 1.0]


def test_retry_io_exhausts_and_raises():
    def always_fails():
        raise OSError("permanent")

    with pytest.raises(OSError):
        retry_io(always_fails, attempts=3, sleep=lambda _: None)


def test_retry_io_does_not_retry_non_transient_errors():
    calls = []

    def crashes():
        calls.append(1)
        raise SimulatedCrash("dead")

    with pytest.raises(SimulatedCrash):
        retry_io(crashes, attempts=5, sleep=lambda _: None)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Memory guard: graceful degradation through the DMC-bitmap tail.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 29, 47])
def test_memory_guard_bitmap_degradation_is_exact(seed):
    matrix = random_binary_matrix(seed)
    baseline = find_implication_rules(matrix, 0.8)
    guard = MemoryGuard(budget_bytes=1)
    stats = PipelineStats()
    guarded = find_implication_rules(
        matrix,
        0.8,
        options=PruningOptions(memory_guard=guard),
        stats=stats,
    )
    assert guarded == baseline
    if guard.trips:
        assert guard.tripped_at is not None
        assert (
            stats.hundred_percent_scan.guard_tripped_at is not None
            or stats.partial_scan.guard_tripped_at is not None
        )


def test_memory_guard_similarity_degradation_is_exact():
    matrix = random_binary_matrix(seed=5)
    baseline = find_similarity_rules(matrix, 0.5)
    guard = MemoryGuard(budget_bytes=1)
    assert (
        find_similarity_rules(
            matrix, 0.5, options=PruningOptions(memory_guard=guard)
        )
        == baseline
    )


def test_memory_guard_on_streaming_pipeline(demo_path):
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    guard = MemoryGuard(budget_bytes=1)
    assert (
        stream_implication_rules(FileSource(demo_path), 0.8, guard=guard)
        == baseline
    )
    assert guard.high_water_bytes > 0


def test_memory_guard_rejects_bad_arguments():
    with pytest.raises(ValueError):
        MemoryGuard(budget_bytes=0)
    with pytest.raises(ValueError):
        MemoryGuard(budget_bytes=-1)


class _GuardCapture(ProgressObserver):
    """Keeps the guard :func:`repro.mine` hands to ``finish``."""

    guard = None

    def finish(self, stats=None, guard=None) -> None:
        self.guard = guard


def _budget_matrix() -> BinaryMatrix:
    """300 rows with 100% rules (column copies and subsets) and
    partial ones (noisy column copies)."""
    generator = np.random.default_rng(2)
    base = generator.random((300, 12)) < 0.3
    subset = base & (generator.random((300, 12)) < 0.7)
    noisy = (base & (generator.random((300, 12)) < 0.85)) | (
        generator.random((300, 12)) < 0.05
    )
    extra = generator.random((300, 6)) < 0.2
    return BinaryMatrix.from_dense(
        np.hstack([base, base[:, :3], subset, noisy, extra]).astype(np.uint8)
    )


BUDGET_TASKS = {
    "implication": ("7/10", implication_rules_bruteforce),
    "similarity": ("3/5", similarity_rules_bruteforce),
}


def _mine_under_budget(matrix, task, engine, budget):
    threshold = BUDGET_TASKS[task][0]
    capture = _GuardCapture()
    # One-row vector blocks put a guard check after every row, as the
    # serial scan does.
    blocks = {"vector_block_rows": 1} if engine == "vector" else {}
    result = repro.mine(
        matrix, task=task, threshold=threshold, engine=engine,
        memory_budget=budget, observer=capture, **blocks,
    )
    return result, capture.guard


class TestMemoryBudget:
    """``memory_budget=`` degrades through the DMC-bitmap tail and
    still mines brute force's rules, byte for byte."""

    @pytest.mark.parametrize("engine", ["dmc", "vector"])
    @pytest.mark.parametrize("task", sorted(BUDGET_TASKS))
    @pytest.mark.parametrize("when", ["row-1", "mid-scan", "never"])
    def test_budget_matches_bruteforce(self, task, engine, when):
        matrix = _budget_matrix()
        threshold, bruteforce = BUDGET_TASKS[task]
        want = bruteforce(matrix, threshold)
        unguarded, probe = _mine_under_budget(
            matrix, task, engine, 10 ** 12
        )
        assert unguarded.stats.rules_hundred_percent > 0
        assert unguarded.stats.rules_partial > 0
        budget = {
            "row-1": 1,
            "mid-scan": probe.high_water_bytes // 2,
            "never": 10 ** 12,
        }[when]
        result, guard = _mine_under_budget(matrix, task, engine, budget)
        assert rules_to_json(result.rules) == rules_to_json(want)
        assert result.engine == engine
        assert guard.budget_bytes == budget
        if when == "never":
            assert guard.tripped_at is None
            assert guard.trips == 0
        elif when == "row-1":
            assert guard.tripped_at == 1
            assert result.stats.hundred_percent_scan.guard_tripped_at == 1
        else:
            assert 1 < guard.tripped_at < matrix.n_rows
            assert result.stats.partial_scan.guard_tripped_at is not None

    @pytest.mark.parametrize("budget", [1, 8, 64, 512, 10 ** 6])
    def test_random_budgets_match_bruteforce(self, budget):
        for seed in range(15):
            matrix = random_binary_matrix(seed, max_rows=60, max_columns=16)
            for task, (threshold, bruteforce) in BUDGET_TASKS.items():
                want = rules_to_json(bruteforce(matrix, threshold))
                for engine in ("dmc", "vector"):
                    result, _ = _mine_under_budget(
                        matrix, task, engine, budget
                    )
                    assert rules_to_json(result.rules) == want, (
                        seed, task, engine,
                    )

    def test_budget_metrics_reach_the_observer(self):
        from repro.observe import RunObserver

        observer = RunObserver()
        repro.mine(
            _budget_matrix(), minconf="7/10", memory_budget=1,
            observer=observer,
        )
        text = observer.metrics.to_prometheus()
        assert "dmc_guard_budget_bytes 1" in text
        assert "dmc_guard_trips_total" in text


# ----------------------------------------------------------------------
# Graceful interrupts: SIGTERM unwinds like Ctrl-C.
# ----------------------------------------------------------------------


class TestGracefulInterrupts:
    def test_sigterm_becomes_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with graceful_interrupts():
                os.kill(os.getpid(), signal.SIGTERM)
                # The handler fires at the next bytecode boundary.
                time.sleep(1.0)
                pytest.fail("SIGTERM was not delivered")

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_interrupts():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigint_mid_pass2_checkpoint_resume(self, tmp_path):
        matrix = random_binary_matrix(3)
        want = find_implication_rules(matrix, 0.7).pairs()
        checkpoint_dir = str(tmp_path / "ckpt")

        plan = FaultPlan(
            [Fault("pass2.row", first=2, error=KeyboardInterrupt)]
        )
        with pytest.raises(KeyboardInterrupt):
            with faults.install(plan):
                stream_implication_rules(
                    MatrixSource(matrix), 0.7,
                    checkpoint_dir=checkpoint_dir,
                )

        # The pass-1 checkpoint survived; the re-run resumes at pass 2
        # (no pre-scan phase) and mines the exact rule set.
        stats = PipelineStats()
        got = stream_implication_rules(
            MatrixSource(matrix), 0.7,
            checkpoint_dir=checkpoint_dir, stats=stats,
        ).pairs()
        assert got == want
        assert "pre-scan" not in stats.timer.seconds


# ----------------------------------------------------------------------
# Source and spill robustness.
# ----------------------------------------------------------------------


def test_single_shot_generator_is_detected():
    rows = [(0, 1), (1, 2), (0, 2)]
    source = IterableSource(row for row in rows)
    assert len(list(source.iter_rows())) == 3
    with pytest.raises(SourceNotReiterableError):
        list(source.iter_rows())


def test_single_shot_generator_fails_a_second_run_loudly():
    # One streaming run needs only one pass over the source (pass 2
    # replays the spill), so a generator survives the first run but a
    # re-run over the same source must fail loudly, not mine nothing.
    rows = [(0, 1), (1, 2), (0, 1, 2), (0, 1)]
    source = IterableSource(row for row in rows)
    first = stream_implication_rules(source, 0.8)
    assert len(first) > 0
    with pytest.raises(SourceNotReiterableError):
        stream_implication_rules(source, 0.8)


def test_list_backed_iterable_source_iterates_twice():
    rows = [(0, 1), (1, 2)]
    source = IterableSource(rows, columns=3)
    assert list(source.iter_rows()) == list(source.iter_rows())
    assert source.n_columns() == 3


def test_file_source_parses_columns_header_eagerly(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("#dmc-matrix\n#columns 9\n0 1\n", encoding="utf-8")
    source = FileSource(str(path))
    assert source.n_columns() == 9  # before any iteration


def test_file_source_without_header_has_unknown_columns(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("0 1\n2 3\n", encoding="utf-8")
    assert FileSource(str(path)).n_columns() is None


def test_durable_spill_requires_directory_and_keeps_files(tmp_path):
    with pytest.raises(ValueError):
        BucketSpill(durable=True)
    directory = str(tmp_path / "buckets")
    spill = BucketSpill(directory=directory, durable=True)
    spill.add((0, 1))
    spill.add((0, 1, 2, 3))
    spill.finish()
    names = [name for name, _, _ in spill.bucket_files()]
    spill.close()
    spill.close()  # idempotent
    for name in names:
        assert os.path.exists(os.path.join(directory, name))


def test_temporary_spill_removes_stray_files_on_close():
    spill = BucketSpill()
    spill.add((0, 1, 2))
    directory = spill._directory
    with open(os.path.join(directory, "stray.tmp"), "w") as handle:
        handle.write("leftover")
    spill.close()
    assert not os.path.exists(directory)


def test_finished_spill_rejects_writes(tmp_path):
    spill = BucketSpill(directory=str(tmp_path / "b"), durable=True)
    spill.add((0, 1))
    spill.finish()
    with pytest.raises(RuntimeError):
        spill.add((1, 2))
    spill.close()


def test_spill_replays_rows_sparsest_first():
    with BucketSpill() as spill:
        spill.add((0, 1, 2, 3))
        spill.add((4,))
        spill.add((5, 6))
        rows = list(spill.read_sparsest_first())
    assert rows == [(4,), (5, 6), (0, 1, 2, 3)]


# ----------------------------------------------------------------------
# Fault-plan bookkeeping.
# ----------------------------------------------------------------------


def test_fault_plan_counts_and_windows():
    plan = FaultPlan([Fault("site", first=2, count=2)])
    plan.trip("site")  # call 1: no fault
    with pytest.raises(OSError):
        plan.trip("site")  # call 2
    with pytest.raises(OSError):
        plan.trip("site")  # call 3
    plan.trip("site")  # call 4: window passed
    assert plan.calls["site"] == 4
    assert plan.fired["site"] == 2


def test_trip_is_noop_without_a_plan():
    faults.trip("anything")  # must not raise
