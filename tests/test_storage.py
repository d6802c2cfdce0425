"""The durable storage layer: write discipline, errno ladder, degradation.

Three layers of coverage:

1. The :class:`~repro.runtime.storage.Storage` primitives and the
   atomic-write discipline (temp file cleanup, durable vs non-durable).
2. The :class:`~repro.runtime.storage.FaultyStorage` test double itself
   (op counting, crash-forever, errno fault scheduling) and the errno
   classification consumed by ``retry_io``.
3. End-to-end degradation: an injected ``ENOSPC`` at any spill,
   checkpoint or journal write still completes the mine with the exact
   rule set, records the ladder step in ``stats.degradations`` and in
   the ``dmc_degradations_total`` metric.
"""

from __future__ import annotations

import errno
import os
import warnings

import pytest

import repro
from repro.core.dmc_imp import find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import save_transactions
from repro.matrix.stream import (
    PACK_ROWS,
    FileSource,
    stream_implication_rules,
    stream_similarity_rules,
)
from repro.observe.journal import read_journal
from repro.observe.run import RunObserver
from repro.runtime import SimulatedCrash
from repro.runtime.guards import (
    ensure_disk_space,
    estimate_spill_bytes,
    retry_io,
)
from repro.runtime.storage import (
    LADDER,
    LOCAL_STORAGE,
    TERMINAL_ERRNOS,
    FaultyStorage,
    LocalStorage,
    StorageFault,
    StorageFull,
    io_error_kind,
    terminal_io_error,
)
from repro.runtime.validation import RowValidator

from tests.test_runtime import DEMO_ROWS

STREAMERS = {
    "implication": (stream_implication_rules, find_implication_rules, 0.8),
    "similarity": (stream_similarity_rules, find_similarity_rules, 0.6),
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
# Layer 1: Storage primitives and the atomic-write discipline.
# ----------------------------------------------------------------------


def test_atomic_write_text_round_trips(tmp_path):
    path = str(tmp_path / "state.json")
    LOCAL_STORAGE.atomic_write_text(path, '{"n": 1}')
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == '{"n": 1}'
    # The temp file is gone after a successful write.
    assert not os.path.exists(path + ".tmp")


def test_atomic_write_text_replaces_previous_content(tmp_path):
    path = str(tmp_path / "state.json")
    LOCAL_STORAGE.atomic_write_text(path, "old")
    LOCAL_STORAGE.atomic_write_text(path, "new")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "new"


def test_atomic_write_text_cleans_temp_file_on_failure(tmp_path):
    path = str(tmp_path / "state.json")
    LOCAL_STORAGE.atomic_write_text(path, "survivor")
    storage = FaultyStorage(faults=(StorageFault(op="fsync"),))
    with pytest.raises(OSError):
        storage.atomic_write_text(path, "doomed")
    # The old file is intact; the temp file was cleaned up.
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "survivor"
    assert not os.path.exists(path + ".tmp")


def test_atomic_write_schedule_is_the_full_discipline(tmp_path):
    """open temp → fsync temp → replace → fsync parent dir, in order."""
    storage = FaultyStorage()
    path = str(tmp_path / "state.json")
    storage.atomic_write_text(path, "x")
    assert [op for op, _ in storage.op_log] == [
        "open-write", "fsync", "replace", "fsync-dir",
    ]
    assert storage.op_log[0][1] == path + ".tmp"
    assert storage.op_log[2][1] == path


def test_non_durable_storage_still_writes_atomically(tmp_path):
    storage = LocalStorage(durable=False)
    path = str(tmp_path / "state.json")
    storage.atomic_write_text(path, "content")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "content"
    assert "durable=False" in repr(storage)


def test_remove_missing_ok(tmp_path):
    missing = str(tmp_path / "never-existed")
    LOCAL_STORAGE.remove(missing)  # fine by default
    with pytest.raises(FileNotFoundError):
        LOCAL_STORAGE.remove(missing, missing_ok=False)


def test_sha256_matches_hashlib(tmp_path):
    import hashlib

    path = str(tmp_path / "blob")
    with open(path, "wb") as handle:
        handle.write(b"dmc" * 1000)
    assert (
        LOCAL_STORAGE.sha256_file(path)
        == hashlib.sha256(b"dmc" * 1000).hexdigest()
    )


def test_fsync_dir_tolerates_unopenable_directory():
    # A nonexistent directory must not raise: the rename is still atomic.
    LOCAL_STORAGE.fsync_dir("/nonexistent/surely/not-here")


# ----------------------------------------------------------------------
# Layer 2: the FaultyStorage double and errno classification.
# ----------------------------------------------------------------------


def test_faulty_storage_counts_operations(tmp_path):
    storage = FaultyStorage()
    path = str(tmp_path / "f.txt")
    handle = storage.open(path, "w", encoding="utf-8")
    handle.write("row\n")
    storage.fsync(handle)
    handle.close()
    storage.remove(path)
    assert storage.op_count == 3
    assert [op for op, _ in storage.op_log] == [
        "open-write", "fsync", "remove",
    ]
    # Metadata reads are never counted.
    storage.exists(path)
    storage.disk_usage(str(tmp_path))
    assert storage.op_count == 3


def test_faulty_storage_crashes_forever(tmp_path):
    storage = FaultyStorage(crash_at=2)
    storage.makedirs(str(tmp_path / "d"))  # op 1: fine
    with pytest.raises(SimulatedCrash):
        storage.makedirs(str(tmp_path / "e"))  # op 2: crash
    # The dead process never touches the disk again — not even cleanup.
    with pytest.raises(SimulatedCrash):
        storage.remove(str(tmp_path / "anything"))
    assert storage.crashed
    assert not os.path.exists(str(tmp_path / "e"))


def test_faulty_storage_crash_at_validation():
    with pytest.raises(ValueError):
        FaultyStorage(crash_at=0)


def test_storage_fault_matches_op_path_and_window(tmp_path):
    fault = StorageFault(
        op="open-write", path_contains="bucket", first=2, count=1
    )
    storage = FaultyStorage(faults=(fault,))
    other = str(tmp_path / "other.txt")
    bucket = str(tmp_path / "bucket-0.txt")
    storage.open(other, "w").close()  # op mismatch irrelevant: open-write but no "bucket"
    storage.open(bucket, "w").close()  # first match: below the window
    with pytest.raises(OSError) as excinfo:
        storage.open(bucket, "w")  # second match: fails
    assert excinfo.value.errno == errno.ENOSPC
    storage.open(bucket, "w").close()  # window exhausted: fine again
    assert storage.errors_raised == {"ENOSPC": 1}


def test_storage_fault_count_none_fails_forever(tmp_path):
    storage = FaultyStorage(faults=(StorageFault(op="replace"),))
    src = str(tmp_path / "a")
    with open(src, "w") as handle:
        handle.write("x")
    for _ in range(3):
        with pytest.raises(OSError):
            storage.replace(src, str(tmp_path / "b"))


def test_terminal_errno_classification():
    for code in TERMINAL_ERRNOS:
        assert terminal_io_error(OSError(code, "full"))
    assert terminal_io_error(StorageFull("typed"))
    assert not terminal_io_error(OSError(errno.EIO, "flaky"))
    assert not terminal_io_error(ValueError("not io at all"))


def test_io_error_kind_labels():
    assert io_error_kind(OSError(errno.ENOSPC, "x")) == "ENOSPC"
    assert io_error_kind(OSError(errno.EIO, "x")) == "EIO"
    assert io_error_kind(RuntimeError("x")) == "RuntimeError"


def test_retry_io_retries_eio_then_succeeds():
    calls = {"n": 0}
    retried = []

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError(errno.EIO, "transient")
        return "ok"

    result = retry_io(
        flaky, attempts=5, sleep=lambda _: None, on_retry=retried.append
    )
    assert result == "ok"
    assert calls["n"] == 3
    assert len(retried) == 2


def test_retry_io_enospc_is_terminal_no_retry():
    calls = {"n": 0}
    gave_up = []

    def full():
        calls["n"] += 1
        raise OSError(errno.ENOSPC, "disk full")

    with pytest.raises(StorageFull):
        retry_io(
            full, attempts=5, sleep=lambda _: None, on_giveup=gave_up.append
        )
    # Exactly one attempt: a full disk is not cured by backoff.
    assert calls["n"] == 1
    assert len(gave_up) == 1
    assert gave_up[0].errno == errno.ENOSPC


def test_retry_io_exhaustion_calls_giveup():
    gave_up = []

    def always_flaky():
        raise OSError(errno.EIO, "still flaky")

    with pytest.raises(OSError):
        retry_io(
            always_flaky,
            attempts=2,
            sleep=lambda _: None,
            on_giveup=gave_up.append,
        )
    assert len(gave_up) == 1


# ----------------------------------------------------------------------
# Disk-space preflight.
# ----------------------------------------------------------------------


def test_estimate_spill_bytes_from_file(demo_path):
    # An id and a length per two bytes of file, plus 31 record headers
    # per block.
    size = os.path.getsize(demo_path)
    estimate = estimate_spill_bytes(source=FileSource(demo_path))
    assert estimate == 8 * ((size + 1) // 2) + 31 * 8 * (
        (size + 1) // PACK_ROWS + 2
    )


def test_estimate_spill_bytes_from_matrix(demo_matrix):
    assert estimate_spill_bytes(matrix=demo_matrix) == (
        demo_matrix.nnz * 8 + 31 * 8 * (demo_matrix.n_rows // PACK_ROWS + 1)
    )


def test_estimate_spill_bytes_unknown_source_is_none():
    assert estimate_spill_bytes(source=object()) is None


def test_ensure_disk_space_passes_and_fails(tmp_path):
    free = ensure_disk_space(str(tmp_path), 1)
    assert free > 0
    # None (unknown footprint) passes trivially.
    assert ensure_disk_space(str(tmp_path), None) == free
    # An unreadable filesystem does not block the run.

    class BlindStorage(LocalStorage):
        def disk_usage(self, path):
            raise OSError(errno.EIO, "no statfs here")

    assert ensure_disk_space(str(tmp_path), 1, storage=BlindStorage()) == -1
    with pytest.raises(StorageFull):
        ensure_disk_space(str(tmp_path), free * 10)


def test_ensure_disk_space_walks_to_existing_parent(tmp_path):
    target = str(tmp_path / "not" / "yet" / "created")
    assert ensure_disk_space(target, 1) > 0


def test_preflight_aborts_before_any_bucket_write(tmp_path, demo_path):
    """An impossible preflight degrades before pass 1 writes anything."""
    stats = PipelineStats()
    spill_dir = str(tmp_path / "spill")

    class TinyDisk(FaultyStorage):
        def disk_usage(self, path):
            import collections

            usage = collections.namedtuple("usage", "total used free")
            return usage(total=100, used=100, free=0)

    storage = TinyDisk()
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    with pytest.warns(RuntimeWarning, match="in memory"):
        degraded = stream_implication_rules(
            FileSource(demo_path),
            0.8,
            spill_dir=spill_dir,
            storage=storage,
            preflight=True,
            stats=stats,
        )
    assert degraded == baseline
    assert stats.degradations == ["spill-to-memory"]
    # No bucket was ever opened for writing.
    assert not any(op == "open-write" for op, _ in storage.op_log)


# ----------------------------------------------------------------------
# Layer 3: end-to-end ENOSPC degradation with exact rules + metrics.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(STREAMERS))
def test_enospc_on_spill_degrades_to_exact_in_memory_run(
    tmp_path, demo_path, demo_matrix, kind
):
    stream, serial, threshold = STREAMERS[kind]
    expected = serial(demo_matrix, threshold)
    assert len(expected) > 0

    # Fail the 2nd bucket open with ENOSPC, forever (a disk stays full).
    storage = FaultyStorage(
        faults=(StorageFault(op="open-write", path_contains="bucket", first=2),)
    )
    stats = PipelineStats()
    observer = RunObserver()
    with pytest.warns(RuntimeWarning, match="in memory"):
        rules = stream(
            FileSource(demo_path),
            threshold,
            spill_dir=str(tmp_path / "spill"),
            storage=storage,
            stats=stats,
            observer=observer,
        )
    assert rules == expected
    assert stats.degradations == ["spill-to-memory"]
    assert (
        observer.metrics.value(
            "dmc_degradations_total", path="spill-to-memory"
        )
        == 1
    )
    assert observer.metrics.value("dmc_io_errors_total", kind="ENOSPC") >= 1


@pytest.mark.parametrize("mode", ["skip", "clamp"])
def test_spill_degradation_keeps_engine_and_validation_counts(
    tmp_path, demo_path, mode
):
    """The degraded run's stats describe it: ``mine()``'s resolved
    engine survives the reset (in the stats and the journal's
    ``run-end``), and the in-memory pass counts its own skipped or
    clamped rows, as the undegraded run does."""
    with open(demo_path, "a") as handle:
        handle.write("0 x 3\n" if mode == "skip" else "1 -2 5\n")
    runs = {}
    for name, storage in (
        ("clean", None),
        ("degraded", FaultyStorage(
            faults=(StorageFault(op="open-write", path_contains="bucket"),)
        )),
    ):
        journal = str(tmp_path / f"{name}.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs[name] = repro.mine(
                FileSource(demo_path, RowValidator(mode)),
                minconf=0.8,
                engine="stream",
                spill_dir=str(tmp_path / name),
                storage=storage,
                journal_path=journal,
            )
        events = {
            event["event"]: event for event in read_journal(journal)
        }
        assert events["run-start"]["engine"] == "stream+vector"
        assert events["run-end"]["engine"] == "stream+vector"
    clean, degraded = runs["clean"].stats, runs["degraded"].stats
    assert degraded.degradations == ["spill-to-memory"]
    assert runs["degraded"].rules == runs["clean"].rules
    assert degraded.engine == clean.engine == "stream+vector"
    counted = ("rows_skipped", "rows_clamped")
    assert [getattr(degraded.hundred_percent_scan, c) for c in counted] == [
        getattr(clean.hundred_percent_scan, c) for c in counted
    ] == ([1, 0] if mode == "skip" else [0, 1])


def _degradation_counts(observer):
    """``dmc_degradations_total`` by ladder rung (non-zero ones)."""
    counts = {
        path: observer.metrics.value("dmc_degradations_total", path=path)
        for path in LADDER
    }
    return {path: count for path, count in counts.items() if count}


def _journal_degradations(path):
    return [
        event["path"] for event in read_journal(path)
        if event["event"] == "degradation"
    ]


def _bucket_enospc():
    return StorageFault(op="open-write", path_contains="bucket")


def test_journal_off_then_spill_degradation_are_both_recorded(
    tmp_path, demo_path
):
    """The spill rung's reset keeps the ``journal-off`` rung taken
    before it: the stats list both, in order, as the metric counts
    them."""
    journal = str(tmp_path / "telemetry" / "run.jsonl")
    storage = FaultyStorage(faults=(
        StorageFault(op="open-write", path_contains=journal, code=errno.EROFS),
        _bucket_enospc(),
    ))
    observer = RunObserver()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = repro.mine(
            demo_path, minconf=0.8, engine="stream", storage=storage,
            spill_dir=str(tmp_path / "spill"), journal_path=journal,
            observer=observer,
        )
    assert result.rules == stream_implication_rules(FileSource(demo_path), 0.8)
    assert result.stats.degradations == ["journal-off", "spill-to-memory"]
    assert _degradation_counts(observer) == {
        "journal-off": 1, "spill-to-memory": 1,
    }


def test_checkpoint_off_then_spill_degradation_are_both_recorded(
    tmp_path, demo_path
):
    """A ``makedirs`` fault on the checkpoint directory, then a full
    spill disk: stats, metric and journal name both rungs, in order."""
    checkpoint_dir = str(tmp_path / "checkpoint")
    journal = str(tmp_path / "run.jsonl")
    storage = FaultyStorage(faults=(
        StorageFault(
            op="makedirs", path_contains=checkpoint_dir, code=errno.EROFS
        ),
        _bucket_enospc(),
    ))
    observer = RunObserver()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = repro.mine(
            demo_path, minconf=0.8, engine="stream", storage=storage,
            checkpoint_dir=checkpoint_dir, journal_path=journal,
            observer=observer,
        )
    assert result.rules == stream_implication_rules(FileSource(demo_path), 0.8)
    rungs = ["checkpoint-off", "spill-to-memory"]
    assert result.stats.degradations == rungs
    assert _degradation_counts(observer) == dict.fromkeys(rungs, 1)
    assert _journal_degradations(journal) == rungs


def test_spill_degradation_grows_columns_like_pass_one(tmp_path):
    """A row id past ``#columns`` widens the on-disk run's counts; the
    in-memory fallback must mine the same file to the same rules
    instead of refusing it."""
    path = tmp_path / "wide.txt"
    path.write_text("#dmc-matrix\n#columns 3\n0 1\n0 1 7\n1 7\n")
    expected = stream_implication_rules(FileSource(str(path)), 0.5)
    assert len(expected) == 3
    storage = FaultyStorage(
        faults=(StorageFault(op="open-write", path_contains="bucket"),)
    )
    stats = PipelineStats()
    with pytest.warns(RuntimeWarning, match="in memory"):
        rules = stream_implication_rules(
            FileSource(str(path)), 0.5,
            spill_dir=str(tmp_path / "spill"), storage=storage,
            stats=stats,
        )
    assert stats.degradations == ["spill-to-memory"]
    assert rules == expected


def test_enospc_on_checkpoint_save_turns_checkpoint_off(
    tmp_path, demo_path
):
    """A full disk at manifest-write time must not kill (or re-run) the
    mine: the buckets are already readable, so pass 2 proceeds and only
    the checkpoint is lost."""
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    storage = FaultyStorage(
        faults=(StorageFault(path_contains="manifest", code=errno.ENOSPC),)
    )
    stats = PipelineStats()
    observer = RunObserver()
    with pytest.warns(RuntimeWarning, match="checkpoint"):
        rules = stream_implication_rules(
            FileSource(demo_path),
            0.8,
            checkpoint_dir=str(tmp_path / "ckpt"),
            storage=storage,
            stats=stats,
            observer=observer,
        )
    assert rules == baseline
    assert "checkpoint-off" in stats.degradations
    assert "spill-to-memory" not in stats.degradations
    assert (
        observer.metrics.value("dmc_degradations_total", path="checkpoint-off")
        == 1
    )


def test_terminal_checkpoint_fault_counts_one_io_error(
    tmp_path, demo_path
):
    """A full disk at the manifest's temp file is one I/O error: the
    give-up inside ``retry_io`` and the ``checkpoint-off`` rung it
    takes must not both count it."""
    storage = FaultyStorage(faults=(
        StorageFault(op="open-write", path_contains="manifest.json.tmp"),
    ))
    observer = RunObserver()
    with pytest.warns(RuntimeWarning, match="checkpoint"):
        rules = stream_implication_rules(
            FileSource(demo_path), 0.8,
            checkpoint_dir=str(tmp_path / "ckpt"), storage=storage,
            observer=observer,
        )
    assert rules == stream_implication_rules(FileSource(demo_path), 0.8)
    assert storage.errors_raised == {"ENOSPC": 1}
    assert observer.metrics.value("dmc_io_errors_total", kind="ENOSPC") == 1


def test_exhausted_replay_retries_count_every_io_error(tmp_path, demo_path):
    """A curable fault that outlasts ``retry_io`` propagates without a
    rung; each attempt's error is still counted, the give-up's too."""
    storage = FaultyStorage(faults=(
        StorageFault(
            op="open-read", path_contains="bucket-", code=errno.EIO,
            count=None,
        ),
    ))
    observer = RunObserver()
    with pytest.raises(OSError) as raised:
        stream_implication_rules(
            FileSource(demo_path), 0.8, spill_dir=str(tmp_path / "spill"),
            storage=storage, observer=observer,
        )
    assert raised.value.errno == errno.EIO
    attempts = storage.errors_raised["EIO"]
    assert attempts == 3
    assert observer.metrics.value("dmc_io_errors_total", kind="EIO") == (
        attempts
    )


def test_readonly_checkpoint_directory_turns_checkpoint_off(
    tmp_path, demo_path
):
    """EROFS at checkpoint-store setup degrades the same way."""
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    storage = FaultyStorage(
        faults=(
            StorageFault(
                op="makedirs", path_contains="ckpt", code=errno.EROFS
            ),
        )
    )
    stats = PipelineStats()
    with pytest.warns(RuntimeWarning, match="checkpoint"):
        rules = stream_implication_rules(
            FileSource(demo_path),
            0.8,
            checkpoint_dir=str(tmp_path / "ckpt"),
            storage=storage,
            stats=stats,
        )
    assert rules == baseline
    assert stats.degradations == ["checkpoint-off"]


def test_transient_eio_on_spill_is_retried_to_success(
    tmp_path, demo_path
):
    """A single EIO during checkpointed spill finalization is absorbed
    by retry_io — no degradation, exact rules."""
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    storage = FaultyStorage(
        faults=(
            StorageFault(
                op="sha256", code=errno.EIO, first=1, count=1
            ),
        )
    )
    stats = PipelineStats()
    observer = RunObserver()
    rules = stream_implication_rules(
        FileSource(demo_path),
        0.8,
        checkpoint_dir=str(tmp_path / "ckpt"),
        storage=storage,
        stats=stats,
        observer=observer,
    )
    assert rules == baseline
    assert stats.degradations == []
    assert storage.errors_raised == {"EIO": 1}
    assert observer.metrics.value("dmc_io_errors_total", kind="EIO") == 1


@pytest.mark.parametrize(
    "code", [errno.EIO, errno.EROFS], ids=["EIO", "EROFS"]
)
def test_failed_checkpoint_removal_keeps_the_rules(
    tmp_path, demo_matrix, code
):
    """The run finished, so a failed delete of its checkpoint (the
    second rmtree; the first prepares the buckets) only warns: the
    next run clears or verifies what is left."""
    import repro

    from repro.baselines.bruteforce import implication_rules_bruteforce

    storage = FaultyStorage(
        faults=(StorageFault(op="rmtree", code=code, first=2),)
    )
    with pytest.warns(
        RuntimeWarning, match="could not remove the finished checkpoint"
    ):
        result = repro.mine(
            demo_matrix, minconf=0.6, engine="stream",
            checkpoint_dir=str(tmp_path / "ckpt"), storage=storage,
        )
    assert storage.errors_raised
    assert result.rules == implication_rules_bruteforce(demo_matrix, 0.6)


def test_unwritable_profile_keeps_the_rules(tmp_path, demo_matrix):
    """A full disk when the profile is written takes the
    ``profile-off`` rung; the finished mine's rules are returned."""
    import repro

    baseline = repro.mine(demo_matrix, minconf=0.6).rules
    storage = FaultyStorage(
        faults=(StorageFault(path_contains="run.prof", code=errno.ENOSPC),)
    )
    observer = RunObserver()
    journal = str(tmp_path / "run.jsonl")
    with pytest.warns(RuntimeWarning, match="profile not written"):
        result = repro.mine(
            demo_matrix, minconf=0.6, storage=storage,
            profile=str(tmp_path / "run.prof"), observer=observer,
            journal_path=journal,
        )
    assert storage.errors_raised == {"ENOSPC": 1}
    assert result.rules == baseline
    assert result.stats.degradations == ["profile-off"]
    assert _degradation_counts(observer) == {"profile-off": 1}
    assert observer.metrics.value("dmc_io_errors_total", kind="ENOSPC") == 1
    events = list(read_journal(journal))
    assert _journal_degradations(journal) == ["profile-off"]
    # The profile is written before the run ends, so run-end lists it.
    assert events[-1]["event"] == "run-end"
    assert events[-1]["degradations"] == ["profile-off"]


def test_degradations_survive_stats_round_trip():
    stats = PipelineStats()
    stats.degradations.extend(["spill-to-memory", "journal-off"])
    clone = PipelineStats.from_dict(stats.to_dict())
    assert clone.degradations == ["spill-to-memory", "journal-off"]


def test_mine_facade_threads_storage_and_flags(tmp_path, demo_path):
    import repro

    storage = FaultyStorage(
        faults=(StorageFault(op="open-write", path_contains="bucket"),)
    )
    with pytest.warns(RuntimeWarning):
        result = repro.mine(
            demo_path, minconf=0.8, storage=storage, spill_dir=str(tmp_path)
        )
    baseline = stream_implication_rules(FileSource(demo_path), 0.8)
    assert result.rules == baseline
    assert result.stats.degradations == ["spill-to-memory"]


class TestExclusiveCommit:
    """First-writer-wins: the primitive duplicate result delivery
    rides on."""

    def test_first_writer_wins_and_content_is_immutable(self, tmp_path):
        from repro.runtime.storage import LOCAL_STORAGE

        target = str(tmp_path / "result.json")
        assert LOCAL_STORAGE.create_exclusive_text(target, "winner") is True
        assert LOCAL_STORAGE.create_exclusive_text(target, "loser") is False
        with open(target, encoding="utf-8") as handle:
            assert handle.read() == "winner"

    def test_loser_leaves_no_temp_droppings(self, tmp_path):
        from repro.runtime.storage import LOCAL_STORAGE

        target = str(tmp_path / "result.json")
        LOCAL_STORAGE.create_exclusive_text(target, "winner")
        LOCAL_STORAGE.create_exclusive_text(target, "loser")
        assert sorted(os.listdir(tmp_path)) == ["result.json"]

    def test_link_never_overwrites(self, tmp_path):
        from repro.runtime.storage import LOCAL_STORAGE

        src_a = str(tmp_path / "a")
        src_b = str(tmp_path / "b")
        dst = str(tmp_path / "dst")
        for path, text in ((src_a, "A"), (src_b, "B")):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        assert LOCAL_STORAGE.link(src_a, dst) is True
        assert LOCAL_STORAGE.link(src_b, dst) is False
        with open(dst, encoding="utf-8") as handle:
            assert handle.read() == "A"
