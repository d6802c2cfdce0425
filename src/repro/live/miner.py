"""The long-lived incremental miner over the write-ahead delta log.

:class:`LiveMiner` accepts row-append batches (through
:meth:`LiveMiner.submit` or an externally-driven
:meth:`~LiveMiner.commit` + :meth:`~LiveMiner.apply_committed` split)
and keeps, at every committed sequence, a rule set *byte-identical*
to a full re-mine of the concatenated data.  The state it carries
between batches is the complete, lossless form of the DMC counters
(see :mod:`repro.core.incremental`):

- ``ones[c]`` per column and the exact ``hits`` of every *tracked*
  pair — from which every miss counter, budget and confidence
  re-derives exactly;
- a compact :class:`~repro.core.incremental.RetiredPair` snapshot for
  every pair pruned below threshold, anchoring the Section 5.2
  optimistic bound that decides re-admission.

Each committed batch is applied in four deterministic steps: count
the batch (new pairs enter tracking at their first-ever
co-occurrence, so their counts are exact by construction);
re-admission — for retired pairs with a column the delta touched,
test :func:`~repro.core.incremental.readmission_required` and, only
when the Fraction math says a rule became possible, recount the exact
hits of the flagged pairs in one replay over the retained WAL rows;
retirement — prune tracked pairs the delta pushed below threshold,
snapshotting their exact state; emission — rebuild the rule set and
diff it against the previous one (``rule-appear`` /
``rule-disappear`` journal events via :mod:`repro.mining.diff`).

Everything is deterministic from the WAL alone, which is the whole
crash story: recovery loads the latest snapshot (verified against
the WAL's chain digest), replays the remaining segments through the
identical apply path, and lands in the identical state — proven by
crash-point enumeration over every storage operation in the tests.

Degradation ladder: when a re-admission replay would exceed the
configured ``replay_budget_rows``, or a snapshot contradicts the WAL
fingerprint (or its column universe), the miner performs a
*journalled full re-mine* — a single exact pass over every retained
WAL row that rebuilds the entire state — rather than ever emitting a
rule set that could differ from the oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.incremental import (
    RetiredPair, canonical_pair, pair_alive, pair_rule,
    readmission_required,
)
from repro.core.rules import RuleSet
from repro.core.thresholds import as_fraction, max_misses, pair_max_misses
from repro.live.wal import AppendResult, DeltaLog, SnapshotStore
from repro.mining.diff import diff_rules
from repro.runtime.storage import LOCAL_STORAGE, Storage

SNAPSHOT_VERSION = 1

Pair = Tuple[int, int]


@dataclass(frozen=True)
class DeltaReceipt:
    """What one submitted batch did to the live state."""

    seq: int
    #: ``committed`` (fresh batch, now applied), ``duplicate``
    #: (idempotent re-submit of a committed sequence).
    status: str
    watermark: int
    applied_seq: int
    rows: int
    #: Rule churn of this batch (both zero for a duplicate).
    appeared: int = 0
    disappeared: int = 0
    changed: int = 0
    n_rules: int = 0
    #: Pairs brought back to exact tracking by a re-admission replay.
    readmitted: int = 0
    #: WAL rows scanned by the re-admission recount (0 = no replay).
    replayed_rows: int = 0
    #: Degradation taken while applying (None = none).
    degraded: Optional[str] = None
    #: True when the apply happened during recovery replay.
    recovered: bool = False


class LiveMiner:
    """One continuously-updated mining run rooted at a directory.

    ``root`` gains two subdirectories: ``wal/`` (the delta segments)
    and ``state/`` (periodic snapshots).  All durable I/O routes
    through ``storage`` so the crash-point harness can enumerate it.

    ``journal`` (optional :class:`~repro.observe.journal.RunJournal`)
    receives ``delta-commit`` / ``delta-applied`` / ``rule-appear`` /
    ``rule-disappear`` / ``live-degrade`` / ``live-open`` events, each
    merged with ``journal_extra`` (the service adds ``job_id``).

    ``replay_budget_rows``: a re-admission replay over more retained
    rows than this degrades to the journalled full re-mine instead
    (None = always replay exactly).

    ``tracer`` (optional :class:`~repro.observe.tracer.Tracer`)
    records one ``delta-apply`` span per applied batch — carrying the
    tracer's ``trace_id``, so live spans join the same end-to-end
    trace as a batch job's attempt spans.
    """

    def __init__(
        self,
        root: str,
        task: str,
        threshold,
        *,
        storage: Optional[Storage] = None,
        journal=None,
        journal_extra: Optional[Dict[str, object]] = None,
        status=None,
        tracer=None,
        snapshot_every: int = 4,
        replay_budget_rows: Optional[int] = None,
    ) -> None:
        if task not in ("implication", "similarity"):
            raise ValueError(
                f"task must be 'implication' or 'similarity', got {task!r}"
            )
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.root = str(root)
        self.task = task
        self.threshold = as_fraction(threshold)
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.journal = journal
        self.journal_extra = dict(journal_extra or {})
        self.status = status
        self.tracer = tracer
        self.snapshot_every = snapshot_every
        self.replay_budget_rows = replay_budget_rows
        self.log = DeltaLog(
            os.path.join(self.root, "wal"), storage=self.storage
        )
        self.snapshots = SnapshotStore(
            os.path.join(self.root, "state"), storage=self.storage
        )
        # -- carried counters (see module docstring) -------------------
        self._labels: List[str] = []
        self._ids: Dict[str, int] = {}
        self._ones: List[int] = []
        self._n_rows = 0
        self._tracked: Dict[Pair, int] = {}
        self._retired: Dict[Pair, RetiredPair] = {}
        self._retired_by_col: Dict[int, Set[Pair]] = {}
        self._rules = RuleSet()
        self.applied_seq = 0
        # -- cumulative run statistics ---------------------------------
        self.readmissions_total = 0
        self.replays_total = 0
        self.replayed_rows_total = 0
        self.degrades_total = 0
        self.recover()

    # -- telemetry -----------------------------------------------------

    def _journal(self, event: str, **payload) -> None:
        if self.journal is not None:
            merged = dict(self.journal_extra)
            merged.update(payload)
            self.journal.emit(event, **merged)

    def _publish_status(self) -> None:
        if self.status is None:
            return
        self.status.rows_scanned = self._n_rows
        self.status.rules_emitted = len(self._rules)
        self.status.live_candidates = len(self._tracked)
        self.status.set_phase("live")
        self.status.set_live(
            watermark=self.log.watermark,
            applied_seq=self.applied_seq,
            n_rows=self._n_rows,
            n_columns=len(self._labels),
            tracked_pairs=len(self._tracked),
            retired_pairs=len(self._retired),
            n_rules=len(self._rules),
            readmissions_total=self.readmissions_total,
            replays_total=self.replays_total,
            replayed_rows_total=self.replayed_rows_total,
            degrades_total=self.degrades_total,
        )

    # -- public views --------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._labels)

    def rules(self) -> RuleSet:
        """The current rule set — exactly a full re-mine's."""
        return self._rules

    def vocabulary(self):
        """Labels in first-appearance order (the full re-mine's ids)."""
        from repro.matrix.binary_matrix import Vocabulary

        return Vocabulary(self._labels)

    def export_pair_store(self):
        """The tracked state as a :class:`~repro.core.candidates.
        PairStore` — the carried-forward miss counters and budgets in
        the batch engines' struct-of-arrays layout."""
        import numpy as np

        from repro.core.candidates import PairStore

        owners, cands, misses, budgets = [], [], [], []
        for (a, b), hits in sorted(self._tracked.items()):
            first, second = canonical_pair(self._ones, a, b)
            owners.append(first)
            cands.append(second)
            misses.append(self._ones[first] - hits)
            if self.task == "implication":
                budgets.append(max_misses(self._ones[first], self.threshold))
            else:
                budgets.append(
                    pair_max_misses(
                        self._ones[first], self._ones[second], self.threshold
                    )
                )
        store = PairStore()
        store.append(
            np.asarray(owners, dtype=np.int64),
            np.asarray(cands, dtype=np.int64),
            np.asarray(misses, dtype=np.int64),
            np.asarray(budgets, dtype=np.int64),
        )
        return store

    # -- ingestion -----------------------------------------------------

    def commit(self, seq: int, rows: Sequence[Sequence[str]]) -> AppendResult:
        """Durably commit one batch without applying it (the service's
        fast path; :meth:`apply_committed` catches the state up)."""
        result = self.log.append(seq, rows)
        if result.status == "committed":
            self._journal("delta-commit", seq=seq, rows=result.rows)
            if self.status is not None:
                self.status.set_live(watermark=self.log.watermark)
        return result

    def submit(self, seq: int, rows: Sequence[Sequence[str]]) -> DeltaReceipt:
        """Commit one batch and apply everything committed: the
        synchronous ingestion path.  Exactly-once: re-submitting a
        committed sequence returns a ``duplicate`` receipt and changes
        nothing."""
        result = self.commit(seq, rows)
        receipts = self.apply_committed()
        for receipt in receipts:
            if receipt.seq == seq:
                if result.duplicate:  # pragma: no cover — defensive
                    receipt = DeltaReceipt(
                        **{**receipt.__dict__, "status": "duplicate"}
                    )
                return receipt
        return DeltaReceipt(
            seq=seq, status=result.status, watermark=self.log.watermark,
            applied_seq=self.applied_seq, rows=result.rows,
            n_rules=len(self._rules),
        )

    def apply_committed(self, recovered: bool = False) -> List[DeltaReceipt]:
        """Apply every committed-but-unapplied segment, in order."""
        receipts = []
        while self.applied_seq < self.log.watermark:
            seq = self.applied_seq + 1
            rows = self.log.read(seq)
            if self.tracer is not None:
                with self.tracer.span(
                    "delta-apply", seq=seq, rows=len(rows),
                    trace_id=self.tracer.trace_id, recovered=recovered,
                ) as span:
                    receipt = self._apply_batch(seq, rows, recovered)
                span.attributes.update(
                    appeared=receipt.appeared,
                    disappeared=receipt.disappeared,
                    readmitted=receipt.readmitted,
                    n_rules=receipt.n_rules,
                )
            else:
                receipt = self._apply_batch(seq, rows, recovered)
            receipts.append(receipt)
        return receipts

    # -- the four-step apply -------------------------------------------

    def _row_ids(self, row: Sequence[str]) -> List[int]:
        """Map one row's labels to ids (first-appearance assignment,
        exactly :meth:`BinaryMatrix.from_transactions`'s), deduped and
        sorted like the matrix normalizes rows."""
        ids = []
        for label in row:
            label = str(label)
            column = self._ids.get(label)
            if column is None:
                column = len(self._labels)
                self._ids[label] = column
                self._labels.append(label)
                self._ones.append(0)
            ids.append(column)
        return sorted(set(ids))

    def _retire(self, pair: Pair, snapshot: RetiredPair) -> None:
        self._retired[pair] = snapshot
        for column in pair:
            self._retired_by_col.setdefault(column, set()).add(pair)

    def _unretire(self, pair: Pair) -> None:
        del self._retired[pair]
        for column in pair:
            members = self._retired_by_col.get(column)
            if members is not None:
                members.discard(pair)
                if not members:
                    del self._retired_by_col[column]

    def _emit_rules(self) -> RuleSet:
        built = (
            pair_rule(self.task, self.threshold, self._ones, a, b, hits)
            for (a, b), hits in self._tracked.items()
        )
        rules = RuleSet()
        rules.add_many([rule for rule in built if rule is not None])
        return rules

    def _apply_batch(
        self, seq: int, rows: List[List[str]], recovered: bool
    ) -> DeltaReceipt:
        before = self._rules
        # Step 1: count the batch.  A pair neither tracked nor retired
        # is co-occurring for the first time ever, so starting its
        # count inside this batch is exact.
        touched: Set[int] = set()
        for row in rows:
            ids = self._row_ids(row)
            self._n_rows += 1
            for column in ids:
                self._ones[column] += 1
            touched.update(ids)
            for x in range(len(ids)):
                for y in range(x + 1, len(ids)):
                    pair = (ids[x], ids[y])
                    if pair in self._retired:
                        continue  # bounded by the retirement snapshot
                    self._tracked[pair] = self._tracked.get(pair, 0) + 1

        # Step 2: re-admission.  Only pairs with a touched column can
        # have moved — an untouched pair's ones, hits and budgets are
        # all unchanged — and only those whose optimistic bound now
        # crosses the threshold need their exact count re-established.
        candidates: Set[Pair] = set()
        for column in touched:
            candidates.update(self._retired_by_col.get(column, ()))
        flagged = [
            pair
            for pair in sorted(candidates)
            if readmission_required(
                self.task, self.threshold, self._retired[pair],
                self._ones[pair[0]], self._ones[pair[1]],
            )
        ]
        readmitted = 0
        replayed_rows = 0
        degraded: Optional[str] = None
        if flagged and (
            self.replay_budget_rows is not None
            and self._n_rows > self.replay_budget_rows
        ):
            degraded = "replay-budget"
            self._rebuild_from_log(
                upto=seq,
                reason=(
                    f"re-admission replay of {len(flagged)} pair(s) "
                    f"over {self._n_rows} rows exceeds the "
                    f"{self.replay_budget_rows}-row budget"
                ),
            )
        elif flagged:
            counts, replayed_rows = self._recount(flagged, upto=seq)
            for pair in flagged:
                hits = counts[pair]
                a, b = pair
                self._unretire(pair)
                if pair_alive(
                    self.task, self.threshold,
                    self._ones[a], self._ones[b], hits,
                ):
                    self._tracked[pair] = hits
                    readmitted += 1
                else:
                    # Spurious flag: re-retire with a fresh snapshot,
                    # which tightens the bound for future deltas.
                    self._retire(
                        pair,
                        RetiredPair(hits, self._ones[a], self._ones[b]),
                    )
            self.readmissions_total += readmitted

        # Step 3: retirement (skipped after a rebuild, which already
        # partitioned every pair against the current threshold math).
        if degraded is None:
            for pair in [
                p for p in self._tracked
                if p[0] in touched or p[1] in touched
            ]:
                a, b = pair
                hits = self._tracked[pair]
                if not pair_alive(
                    self.task, self.threshold,
                    self._ones[a], self._ones[b], hits,
                ):
                    del self._tracked[pair]
                    self._retire(
                        pair,
                        RetiredPair(hits, self._ones[a], self._ones[b]),
                    )

        # Step 4: emission + churn diff.
        self._rules = self._emit_rules()
        self.applied_seq = seq
        diff = diff_rules(before, self._rules)
        # One label table per batch, and none for a batch without churn.
        vocabulary = (
            self.vocabulary() if diff.added or diff.removed else None
        )
        for entry in diff.entries():
            if entry.kind == "added":
                self._journal(
                    "rule-appear", seq=seq, pair=list(entry.pair),
                    rule=entry.after.format(vocabulary),
                    recovered=recovered,
                )
            elif entry.kind == "removed":
                self._journal(
                    "rule-disappear", seq=seq, pair=list(entry.pair),
                    rule=entry.before.format(vocabulary),
                    recovered=recovered,
                )
        self._journal(
            "delta-applied", seq=seq, rows=len(rows),
            appeared=len(diff.added), disappeared=len(diff.removed),
            changed=len(diff.changed), n_rules=len(self._rules),
            readmitted=readmitted, replayed_rows=replayed_rows,
            degraded=degraded, recovered=recovered,
        )
        # Push the batch's churn events past the journal's fsync
        # batching: deltas are low-rate, and `repro watch` followers
        # should see them as they land, not at the next 32-event mark.
        if self.journal is not None:
            self.journal.flush()
        if seq % self.snapshot_every == 0:
            self.snapshot_now()
        self._publish_status()
        return DeltaReceipt(
            seq=seq, status="committed", watermark=self.log.watermark,
            applied_seq=self.applied_seq, rows=len(rows),
            appeared=len(diff.added), disappeared=len(diff.removed),
            changed=len(diff.changed), n_rules=len(self._rules),
            readmitted=readmitted, replayed_rows=replayed_rows,
            degraded=degraded, recovered=recovered,
        )

    def _recount(
        self, pairs: List[Pair], upto: int
    ) -> Tuple[Dict[Pair, int], int]:
        """Exact hits of ``pairs`` over the retained rows 1..``upto``.

        One shared scan recounts every flagged pair; the WAL retains
        all rows precisely so this stays exact forever.
        """
        counts = {pair: 0 for pair in pairs}
        rows_scanned = 0
        for _seq, segment_rows in self.log.iter_rows(upto):
            for row in segment_rows:
                idset = {self._ids[str(label)] for label in row}
                rows_scanned += 1
                for pair in pairs:
                    if pair[0] in idset and pair[1] in idset:
                        counts[pair] += 1
        self.replays_total += 1
        self.replayed_rows_total += rows_scanned
        return counts, rows_scanned

    def _rebuild_from_log(self, upto: int, reason: str) -> None:
        """The journalled full re-mine: recompute the entire state
        from the raw WAL rows in one exact pass."""
        self._labels, self._ids = [], {}
        self._ones, self._n_rows = [], 0
        self._tracked, self._retired = {}, {}
        self._retired_by_col = {}
        hits: Dict[Pair, int] = {}
        for _seq, segment_rows in self.log.iter_rows(upto):
            for row in segment_rows:
                ids = self._row_ids(row)
                self._n_rows += 1
                for column in ids:
                    self._ones[column] += 1
                for x in range(len(ids)):
                    for y in range(x + 1, len(ids)):
                        pair = (ids[x], ids[y])
                        hits[pair] = hits.get(pair, 0) + 1
        for pair, count in hits.items():
            a, b = pair
            if pair_alive(
                self.task, self.threshold,
                self._ones[a], self._ones[b], count,
            ):
                self._tracked[pair] = count
            else:
                self._retire(
                    pair, RetiredPair(count, self._ones[a], self._ones[b])
                )
        self.degrades_total += 1
        self._journal(
            "live-degrade", reason=reason, upto=upto, rows=self._n_rows
        )

    # -- snapshots and recovery ----------------------------------------

    def snapshot_now(self) -> None:
        """Durably snapshot the state at ``applied_seq`` (atomic)."""
        document = {
            "version": SNAPSHOT_VERSION,
            "task": self.task,
            "threshold": str(self.threshold),
            "seq": self.applied_seq,
            "chain_sha": self.log.chain_sha(self.applied_seq),
            "labels": list(self._labels),
            "ones": list(self._ones),
            "n_rows": self._n_rows,
            "tracked": [
                [a, b, hits]
                for (a, b), hits in sorted(self._tracked.items())
            ],
            "retired": [
                [a, b, snap.hits, snap.ones_a, snap.ones_b]
                for (a, b), snap in sorted(self._retired.items())
            ],
            "stats": {
                "readmissions_total": self.readmissions_total,
                "replays_total": self.replays_total,
                "replayed_rows_total": self.replayed_rows_total,
                "degrades_total": self.degrades_total,
            },
        }
        self.snapshots.save(document)

    def _load_snapshot(self, document: Dict[str, object]) -> Optional[str]:
        """Restore state from a snapshot; returns the invariant-breach
        reason when the snapshot cannot be trusted (None = loaded)."""
        if document.get("version") != SNAPSHOT_VERSION:
            return "snapshot-version"
        if document.get("task") != self.task or (
            as_fraction(str(document.get("threshold"))) != self.threshold
        ):
            raise ValueError(
                "snapshot was written by a different configuration "
                f"(task={document.get('task')!r}, "
                f"threshold={document.get('threshold')!r})"
            )
        seq = int(document["seq"])
        if seq > self.log.watermark:
            return "snapshot-ahead-of-wal"
        try:
            if document.get("chain_sha") != self.log.chain_sha(seq):
                return "fingerprint-mismatch"
        except (OSError, ValueError):
            return "fingerprint-unreadable"
        labels = [str(label) for label in document["labels"]]
        ones = [int(count) for count in document["ones"]]
        if len(labels) != len(ones) or len(set(labels)) != len(labels):
            return "column-universe-mismatch"
        self._labels = labels
        self._ids = {label: i for i, label in enumerate(labels)}
        self._ones = ones
        self._n_rows = int(document["n_rows"])
        self._tracked = {
            (int(a), int(b)): int(hits)
            for a, b, hits in document["tracked"]
        }
        self._retired, self._retired_by_col = {}, {}
        for a, b, hits, ones_a, ones_b in document["retired"]:
            self._retire(
                (int(a), int(b)),
                RetiredPair(int(hits), int(ones_a), int(ones_b)),
            )
        stats = document.get("stats", {})
        self.readmissions_total = int(stats.get("readmissions_total", 0))
        self.replays_total = int(stats.get("replays_total", 0))
        self.replayed_rows_total = int(stats.get("replayed_rows_total", 0))
        self.degrades_total = int(stats.get("degrades_total", 0))
        self.applied_seq = seq
        return None

    def recover(self) -> None:
        """The restart path: snapshot + replay, or degrade to the
        journalled full re-mine when an invariant broke.  Deterministic
        — a restarted miner converges to the never-crashed state."""
        document = self.snapshots.load()
        if document is not None:
            breach = self._load_snapshot(document)
            if breach is not None:
                self._rebuild_from_log(
                    upto=self.log.watermark,
                    reason=f"snapshot invariant breach: {breach}",
                )
                self.applied_seq = self.log.watermark
        self._rules = self._emit_rules()
        receipts = self.apply_committed(recovered=True)
        self._journal(
            "live-open", watermark=self.log.watermark,
            applied_seq=self.applied_seq, replayed=len(receipts),
            n_rules=len(self._rules), n_rows=self._n_rows,
        )
        if self.journal is not None:
            self.journal.flush()
        self._publish_status()
