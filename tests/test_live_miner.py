"""Continuous mining: the delta WAL and the live miner.

The heart of this suite is the parity matrix: *any* partition of a
dataset into append batches — across implication/similarity, several
thresholds and both comparison engines (``dmc`` and ``vector``) —
must leave the live miner's rule set identical to a one-shot mine of
the concatenated data, batch boundary by batch boundary, and still
identical after the process is killed at every enumerated storage
operation and restarted (the PR-4/PR-8 crash-point discipline).
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.live import (
    DeltaLog,
    DeltaMismatch,
    LiveMiner,
    OutOfOrderDelta,
    SnapshotStore,
)
from repro.mining.diff import DiffEntry, diff_rules
from repro.observe.journal import RunJournal, read_journal
from repro.observe.live import LiveRunStatus
from repro.runtime.crashpoints import enumerate_crash_points
from repro.runtime.storage import FaultyStorage

from fractions import Fraction


def make_rows(n_rows, n_labels, seed, max_width=5):
    rng = random.Random(seed)
    labels = [f"c{i}" for i in range(n_labels)]
    return [
        rng.sample(labels, rng.randint(1, max_width))
        for _ in range(n_rows)
    ]


def random_splits(rows, seed, n_batches=None):
    """Partition ``rows`` into contiguous non-empty append batches."""
    rng = random.Random(seed)
    if n_batches is None:
        n_batches = rng.randint(1, max(2, len(rows) // 10))
    n_batches = min(n_batches, len(rows))
    cuts = sorted(rng.sample(range(1, len(rows)), n_batches - 1))
    bounds = [0] + cuts + [len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def canon(rules):
    return sorted(str(rule) for rule in rules.sorted())


# ----------------------------------------------------------------------
# The delta WAL.
# ----------------------------------------------------------------------


class TestDeltaLog:
    def test_append_read_watermark(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        assert log.watermark == 0
        result = log.append(1, [["a", "b"], ["c"]])
        assert result.status == "committed"
        assert result.watermark == 1
        assert log.read(1) == [["a", "b"], ["c"]]
        log.append(2, [["a"]])
        assert log.watermark == 2
        assert list(log.iter_rows()) == [
            (1, [["a", "b"], ["c"]]), (2, [["a"]]),
        ]

    def test_duplicate_is_noop_with_explicit_status(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [["a"]])
        result = log.append(1, [["a"]])
        assert result.duplicate
        assert result.status == "duplicate"
        assert log.watermark == 1

    def test_duplicate_with_different_rows_is_rejected(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [["a"]])
        with pytest.raises(DeltaMismatch):
            log.append(1, [["b"]])

    def test_out_of_order_is_typed_and_names_expected(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [["a"]])
        with pytest.raises(OutOfOrderDelta) as excinfo:
            log.append(3, [["b"]])
        assert excinfo.value.seq == 3
        assert excinfo.value.expected == 2

    def test_bad_sequence_numbers_rejected(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        for bad in (0, -1, True, "1", 1.0):
            with pytest.raises(ValueError):
                log.append(bad, [["a"]])

    def test_string_rows_rejected(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        with pytest.raises(ValueError):
            log.append(1, ["ab"])  # a string row is a label-list bug

    def test_watermark_rescanned_on_open(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [["a"]])
        log.append(2, [["b"]])
        reopened = DeltaLog(str(tmp_path / "wal"))
        assert reopened.watermark == 2
        assert reopened.read(2) == [["b"]]

    def test_gap_on_disk_truncates_watermark(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [["a"]])
        log.append(2, [["b"]])
        log.append(3, [["c"]])
        (tmp_path / "wal" / "delta-00000002.json").unlink()
        reopened = DeltaLog(str(tmp_path / "wal"))
        # The contiguous prefix is the log; 3 is unreachable.
        assert reopened.watermark == 1

    def test_chain_sha_links_segments(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [["a"]])
        log.append(2, [["b"]])
        sha1 = log.chain_sha(1)
        sha2 = log.chain_sha(2)
        assert sha1 != sha2
        # Recomputable from a fresh open (cache cold).
        reopened = DeltaLog(str(tmp_path / "wal"))
        assert reopened.chain_sha(2) == sha2

    def test_labels_coerced_to_str(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal"))
        log.append(1, [[1, 2], [3]])
        assert log.read(1) == [["1", "2"], ["3"]]


class TestSnapshotStore:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "state"))
        assert store.load() is None
        store.save({"seq": 3, "ones": [1, 2]})
        assert store.load() == {"seq": 3, "ones": [1, 2]}

    def test_garbage_is_treated_as_absent(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "state"))
        store.save({"seq": 1})
        (tmp_path / "state" / "snapshot.json").write_text("{torn")
        assert store.load() is None


# ----------------------------------------------------------------------
# The parity matrix (the acceptance criterion).
# ----------------------------------------------------------------------


PARITY_CASES = [
    ("implication", "2/3"),
    ("implication", "9/10"),
    ("similarity", "1/2"),
    ("similarity", "3/4"),
]

#: Thresholds that pairs of the random-split data meet exactly (``ones
#: * threshold`` integral, confidence or similarity equal to it), so
#: the ``>=`` of the Fraction comparison decides those rules.
BOUNDARY_CASES = [
    ("implication", "1/4"),
    ("similarity", "1/8"),
]


def rule_value(rule):
    if hasattr(rule, "confidence"):
        return rule.confidence
    return rule.similarity


class TestParityMatrix:
    @pytest.mark.parametrize("task,threshold", PARITY_CASES + BOUNDARY_CASES)
    @pytest.mark.parametrize("engine", ["dmc", "vector"])
    @pytest.mark.parametrize("split_seed", [0, 1, 2])
    def test_random_splits_match_one_shot_mine(
        self, tmp_path, task, threshold, engine, split_seed
    ):
        rows = make_rows(160, 12, seed=split_seed + 17)
        batches = random_splits(rows, seed=split_seed)
        miner = LiveMiner(
            str(tmp_path / "live"), task, threshold, snapshot_every=3
        )
        consumed = 0
        ties = 0
        for seq, batch in enumerate(batches, 1):
            miner.submit(seq, batch)
            consumed += len(batch)
            # Parity at *every* batch boundary, not just the end.
            oracle = repro.mine(
                rows[:consumed], task=task, threshold=threshold,
                engine=engine,
            )
            assert miner.rules() == oracle.rules
            ties += sum(
                rule_value(rule) == Fraction(threshold)
                for rule in miner.rules()
            )
        assert ties or (task, threshold) not in BOUNDARY_CASES

    @pytest.mark.parametrize("task,threshold", PARITY_CASES[:2])
    def test_restart_at_every_batch_boundary(
        self, tmp_path, task, threshold
    ):
        rows = make_rows(120, 10, seed=5)
        batches = random_splits(rows, seed=9, n_batches=6)
        root = str(tmp_path / "live")
        consumed = 0
        for seq, batch in enumerate(batches, 1):
            # A fresh miner per batch = a restart before every submit.
            miner = LiveMiner(root, task, threshold, snapshot_every=2)
            miner.submit(seq, batch)
            consumed += len(batch)
            oracle = repro.mine(
                rows[:consumed], task=task, threshold=threshold,
                engine="dmc",
            )
            assert miner.rules() == oracle.rules

    def test_single_batch_equals_one_shot(self, tmp_path):
        rows = make_rows(80, 8, seed=2)
        miner = LiveMiner(str(tmp_path / "live"), "implication", "2/3")
        miner.submit(1, rows)
        oracle = repro.mine(
            rows, task="implication", threshold="2/3", engine="dmc"
        )
        assert miner.rules() == oracle.rules

    def test_vocabulary_ids_match_batch_engine(self, tmp_path):
        rows = [["b", "a"], ["c", "a", "c"], ["d"]]
        miner = LiveMiner(str(tmp_path / "live"), "implication", "1/2")
        miner.submit(1, rows[:2])
        miner.submit(2, rows[2:])
        from repro.matrix.binary_matrix import BinaryMatrix

        matrix = BinaryMatrix.from_transactions(rows)
        assert miner.vocabulary().labels() == matrix.vocabulary.labels()


# ----------------------------------------------------------------------
# Exactly-once and sequence discipline through the miner.
# ----------------------------------------------------------------------


class TestExactlyOnce:
    def test_duplicate_submit_is_noop(self, tmp_path):
        miner = LiveMiner(str(tmp_path / "live"), "implication", "2/3")
        rows = make_rows(40, 8, seed=3)
        miner.submit(1, rows[:20])
        before = canon(miner.rules())
        receipt = miner.submit(1, rows[:20])
        assert receipt.status == "duplicate"
        assert canon(miner.rules()) == before
        assert miner.n_rows == 20

    def test_duplicate_storm(self, tmp_path):
        miner = LiveMiner(str(tmp_path / "live"), "similarity", "1/2")
        rows = make_rows(60, 8, seed=4)
        batches = random_splits(rows, seed=4, n_batches=4)
        for seq, batch in enumerate(batches, 1):
            for _ in range(3):  # a retrying client re-delivers everything
                receipt = miner.submit(seq, batch)
            assert receipt.status == "duplicate"
        oracle = repro.mine(
            rows, task="similarity", threshold="1/2", engine="dmc"
        )
        assert miner.rules() == oracle.rules
        assert miner.n_rows == len(rows)

    def test_out_of_order_rejected_without_state_change(self, tmp_path):
        miner = LiveMiner(str(tmp_path / "live"), "implication", "2/3")
        miner.submit(1, [["a", "b"]])
        with pytest.raises(OutOfOrderDelta):
            miner.submit(5, [["c"]])
        assert miner.n_rows == 1
        assert miner.log.watermark == 1


# ----------------------------------------------------------------------
# Snapshot breaches: the one degradation, a rebuild at the watermark.
# ----------------------------------------------------------------------


class TestReadmission:
    def test_snapshot_fingerprint_mismatch_degrades(self, tmp_path):
        root = str(tmp_path / "live")
        miner = LiveMiner(root, "implication", "2/3", snapshot_every=1)
        rows = make_rows(60, 8, seed=7)
        miner.submit(1, rows[:30])
        miner.submit(2, rows[30:])
        # Corrupt the snapshot's chain fingerprint: the restart must
        # distrust it and take the journalled full re-mine.
        snapshot_path = tmp_path / "live" / "state" / "snapshot.json"
        document = json.loads(snapshot_path.read_text())
        document["chain_sha"] = "0" * 64
        snapshot_path.write_text(json.dumps(document))
        journal_path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(journal_path, run_id="t")
        recovered = LiveMiner(
            root, "implication", "2/3", journal=journal
        )
        journal.close()
        assert recovered.degrades_total >= 1
        events = [r["event"] for r in read_journal(journal_path)]
        assert "live-degrade" in events
        oracle = repro.mine(
            rows, task="implication", threshold="2/3", engine="dmc"
        )
        assert recovered.rules() == oracle.rules

    def test_version_1_snapshot_is_stale(self, tmp_path):
        """A pair-state snapshot in the earlier format (version 1) is
        a ``snapshot-version`` breach: the restart rebuilds from the
        WAL and ignores its counters."""
        root = str(tmp_path / "live")
        rows = make_rows(60, 8, seed=7)
        miner = LiveMiner(root, "implication", "2/3", snapshot_every=1)
        miner.submit(1, rows[:30])
        miner.submit(2, rows[30:])
        snapshot_path = tmp_path / "live" / "state" / "snapshot.json"
        snapshot_path.write_text(json.dumps({
            "version": 1, "task": "implication", "threshold": "2/3",
            "seq": 2, "chain_sha": miner.log.chain_sha(2),
            "labels": ["c0"], "ones": [1], "n_rows": 1,
            "tracked": [], "retired": [],
            "stats": {"readmissions_total": 3, "replays_total": 1,
                      "replayed_rows_total": 9, "degrades_total": 0},
        }))
        journal_path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(journal_path, run_id="t")
        recovered = LiveMiner(root, "implication", "2/3", journal=journal)
        journal.close()
        degrades = [
            r for r in read_journal(journal_path)
            if r["event"] == "live-degrade"
        ]
        assert [r["reason"] for r in degrades] == [
            "snapshot invariant breach: snapshot-version"
        ]
        assert recovered.degrades_total == 1
        assert recovered.applied_seq == 2
        assert recovered.n_rows == len(rows)
        assert recovered.rules() == repro.mine(
            rows, task="implication", threshold="2/3"
        ).rules

    def test_config_mismatch_is_an_error_not_a_degrade(self, tmp_path):
        root = str(tmp_path / "live")
        miner = LiveMiner(root, "implication", "2/3", snapshot_every=1)
        miner.submit(1, [["a", "b"]])
        with pytest.raises(ValueError):
            LiveMiner(root, "similarity", "2/3")


# ----------------------------------------------------------------------
# Journalled rule churn and status publishing.
# ----------------------------------------------------------------------


class TestChurnSurface:
    def test_rule_appear_disappear_events(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(journal_path, run_id="t")
        miner = LiveMiner(
            str(tmp_path / "live"), "implication", "3/4",
            journal=journal, journal_extra={"job_id": "live-1"},
        )
        miner.submit(1, [["a", "b"]] * 3)          # rule appears
        miner.submit(2, [["a"], ["a"], ["b"]])     # rule disappears
        journal.close()
        records = read_journal(journal_path)
        events = [r["event"] for r in records]
        assert "rule-appear" in events
        assert "rule-disappear" in events
        assert "delta-applied" in events
        for record in records:
            assert record["job_id"] == "live-1"

    def test_events_visible_before_journal_close(self, tmp_path):
        """Churn events must reach disk at batch granularity — a
        `repro watch` follower cannot wait for the journal's 32-event
        fsync batch while the journal stays open."""
        journal_path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(journal_path, run_id="t")
        miner = LiveMiner(
            str(tmp_path / "live"), "implication", "3/4",
            journal=journal,
        )
        miner.submit(1, [["a", "b"]] * 3)
        events = [r["event"] for r in read_journal(journal_path)]
        journal.close()
        assert "delta-applied" in events
        assert "rule-appear" in events

    def test_vocabulary_built_once_per_batch(self, tmp_path, monkeypatch):
        """Formatting a batch's churn events needs the label table once,
        not once per event — and a batch without churn needs none."""
        builds = []
        build = LiveMiner.vocabulary

        def counting(miner):
            builds.append(1)
            return build(miner)

        monkeypatch.setattr(LiveMiner, "vocabulary", counting)
        journal_path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(journal_path, run_id="t")
        miner = LiveMiner(
            str(tmp_path / "live"), "implication", "3/4", journal=journal,
        )
        labels = [f"c{i}" for i in range(10)]
        miner.submit(1, [labels] * 3)        # 45 rules appear
        assert len(builds) == 1
        miner.submit(2, [labels])            # counts move, no churn
        assert len(builds) == 1
        miner.submit(3, [["c0"]] * 4)        # the c0 rules disappear
        assert len(builds) == 2
        journal.close()
        appeared = [
            r for r in read_journal(journal_path)
            if r["event"] == "rule-appear" and r["seq"] == 1
        ]
        assert len(appeared) == 45
        assert all("c" in record["rule"] for record in appeared)

    def test_status_live_fields(self, tmp_path):
        status = LiveRunStatus(run_id="live-1")
        miner = LiveMiner(
            str(tmp_path / "live"), "similarity", "1/2", status=status
        )
        miner.submit(1, make_rows(30, 6, seed=8))
        snapshot = status.snapshot()
        assert snapshot["live"]["watermark"] == 1
        assert snapshot["live"]["applied_seq"] == 1
        assert snapshot["live"]["n_rows"] == 30
        assert snapshot["rows_scanned"] == 30

# ----------------------------------------------------------------------
# Crash-point enumeration: kill at every storage op, recovery exact.
# ----------------------------------------------------------------------


def _crash_workload(tmp_path, task, threshold, batches, oracle_rules):
    """run/recover callables for :func:`enumerate_crash_points`.

    Each enumeration run ingests into a *fresh* directory (so the
    crash can land during any append, replay or snapshot op); the
    recovery reopens the same directory and re-submits every batch
    like a retrying client — the watermark dedup must absorb the
    overlap.
    """
    state = {"generation": 0}

    def ingest(miner):
        for seq, batch in enumerate(batches, 1):
            if seq > miner.log.watermark:
                miner.submit(seq, batch)
        return canon(miner.rules())

    def run(storage):
        state["generation"] += 1
        root = str(tmp_path / f"gen{state['generation']}")
        miner = LiveMiner(
            root, task, threshold, storage=storage, snapshot_every=2
        )
        return ingest(miner)

    def recover(storage):
        root = str(tmp_path / f"gen{state['generation']}")
        miner = LiveMiner(
            root, task, threshold, storage=storage, snapshot_every=2
        )
        return ingest(miner)

    return run, recover, canon(oracle_rules)


class TestCrashPoints:
    @pytest.mark.parametrize("task,threshold", PARITY_CASES[:2])
    def test_bounded_sweep(self, tmp_path, task, threshold):
        rows = make_rows(60, 8, seed=11)
        batches = random_splits(rows, seed=11, n_batches=4)
        oracle = repro.mine(
            rows, task=task, threshold=threshold, engine="dmc"
        )
        run, recover, expected = _crash_workload(
            tmp_path, task, threshold, batches, oracle.rules
        )
        report = enumerate_crash_points(
            run, recover=recover, expected=expected, max_points=24
        )
        assert report.failures == [], report.describe_failures()

    @pytest.mark.slow
    @pytest.mark.parametrize("task,threshold", PARITY_CASES)
    def test_full_sweep(self, tmp_path, task, threshold):
        rows = make_rows(80, 10, seed=13)
        batches = random_splits(rows, seed=13, n_batches=5)
        oracle = repro.mine(
            rows, task=task, threshold=threshold, engine="dmc"
        )
        run, recover, expected = _crash_workload(
            tmp_path, task, threshold, batches, oracle.rules
        )
        report = enumerate_crash_points(
            run, recover=recover, expected=expected
        )
        assert report.total_ops > 20
        assert report.failures == [], report.describe_failures()

    def test_crash_between_commit_and_apply_replays(self, tmp_path):
        """The WAL-committed-but-unapplied window loses nothing."""
        root = str(tmp_path / "live")
        rows = make_rows(40, 8, seed=15)
        miner = LiveMiner(root, "implication", "2/3")
        miner.submit(1, rows[:20])
        # Commit without applying — then "die".
        miner.commit(2, rows[20:])
        assert miner.applied_seq == 1
        recovered = LiveMiner(root, "implication", "2/3")
        assert recovered.applied_seq == 2
        oracle = repro.mine(
            rows, task="implication", threshold="2/3", engine="dmc"
        )
        assert recovered.rules() == oracle.rules


# ----------------------------------------------------------------------
# The programmatic RuleDiff API (satellite).
# ----------------------------------------------------------------------


class TestRuleDiffAPI:
    def _sets(self):
        before = repro.mine(
            [["a", "b"], ["a", "b"], ["a"], ["c", "d"], ["c", "d"]],
            task="implication", threshold="2/3",
        ).rules
        after = repro.mine(
            [["a", "b"], ["a", "b"], ["a"], ["a"], ["b", "e"],
             ["c", "d"], ["c", "d"]],
            task="implication", threshold="2/3",
        ).rules
        return before, after

    def test_entries_stable_order(self):
        before, after = self._sets()
        diff = diff_rules(before, after)
        entries = diff.entries()
        assert entries == diff.entries()  # deterministic
        assert [e.pair for e in entries] == sorted(
            e.pair for e in entries
        )
        assert list(diff) == entries

    def test_entry_kinds_partition_the_diff(self):
        before, after = self._sets()
        diff = diff_rules(before, after)
        kinds = {}
        for entry in diff.entries():
            kinds.setdefault(entry.kind, []).append(entry)
            if entry.kind == "added":
                assert entry.before is None and entry.after is not None
            elif entry.kind == "removed":
                assert entry.before is not None and entry.after is None
            else:
                assert entry.before is not None and entry.after is not None
        assert len(kinds.get("added", ())) == len(diff.added)
        assert len(kinds.get("removed", ())) == len(diff.removed)
        assert len(kinds.get("changed", ())) == len(diff.changed)

    def test_to_events_json_ready(self):
        before, after = self._sets()
        events = diff_rules(before, after).to_events()
        text = json.dumps(events)  # must serialize
        assert json.loads(text) == events
        for event in events:
            assert set(event) == {"kind", "pair", "before", "after"}

    def test_empty_diff_has_no_entries(self):
        before, _ = self._sets()
        diff = diff_rules(before, before)
        assert diff.is_empty
        assert diff.entries() == []

    def test_diff_entry_frozen(self):
        entry = DiffEntry("added", (0, 1), None, None)
        with pytest.raises(AttributeError):
            entry.kind = "removed"
