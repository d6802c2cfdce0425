"""The long-lived live miner over the write-ahead delta log.

:class:`LiveMiner` accepts row-append batches (through
:meth:`LiveMiner.submit` or an externally-driven
:meth:`~LiveMiner.commit` + :meth:`~LiveMiner.apply_committed` split)
and keeps, at every committed sequence, a rule set *byte-identical*
to a one-shot mine of the concatenated data — because it is one.  The
state carried between batches is the label table, the rows so far as
growing CSR arrays, and the current :class:`~repro.core.rules.RuleSet`.

Each committed batch is applied in four deterministic steps: map the
batch's labels to column ids (first-appearance order, exactly
:meth:`BinaryMatrix.from_transactions`'s) and append its rows; view
the rows as a :class:`~repro.matrix.binary_matrix.BinaryMatrix`; mine
it with the default plan (the vector scan of
:func:`repro.core.dmc_imp.mine_matrix`); diff the result against the
previous rule set (``rule-appear`` / ``rule-disappear`` journal
events via :mod:`repro.mining.diff`).

The rows alone fix the rules, so the WAL is the only durable state:
recovery reads rows 1..watermark back from the segments and mines
them once, without journalling their churn again — proven by
crash-point enumeration over every storage operation in the tests.
Besides the WAL the root holds one small record, written at first
open, of the task and threshold it was opened with; opening it with
another configuration is an error.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dmc_imp import mine_matrix
from repro.core.rules import RuleSet
from repro.core.thresholds import as_fraction
from repro.live.wal import AppendResult, DeltaLog
from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary
from repro.mining.diff import diff_rules
from repro.runtime.storage import LOCAL_STORAGE, Storage

#: The root's ``{task, threshold}`` record.  Roots written before
#: recovery became one mine kept these keys in a snapshot at this
#: path (beside a sequence and chain digest, now ignored), so the one
#: reader checks both.
CONFIG_PATH = os.path.join("state", "snapshot.json")


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


class LiveMiner:
    """One continuously-updated mining run rooted at a directory.

    ``root`` gains two subdirectories: ``wal/`` (the delta segments)
    and ``state/`` (the task/threshold record).  All durable I/O
    routes through ``storage`` so the crash-point harness can
    enumerate it.

    ``journal`` (optional :class:`~repro.observe.journal.RunJournal`)
    receives ``delta-commit`` / ``delta-applied`` / ``rule-appear`` /
    ``rule-disappear`` / ``live-open`` events, each merged with
    ``journal_extra`` (the service adds ``job_id``).

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
    ) -> None:
        if task not in ("implication", "similarity"):
            raise ValueError(
                f"task must be 'implication' or 'similarity', got {task!r}"
            )
        self.root = str(root)
        self.task = task
        self.threshold = as_fraction(threshold)
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.journal = journal
        self.journal_extra = dict(journal_extra or {})
        self.status = status
        self.tracer = tracer
        self.log = DeltaLog(
            os.path.join(self.root, "wal"), storage=self.storage
        )
        self._vocabulary = Vocabulary()
        self._offsets = np.zeros(1, dtype=np.int64)
        self._cols = np.zeros(0, dtype=np.int64)
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
        self.status.rows_scanned = self.n_rows
        self.status.rules_emitted = len(self._rules)
        self.status.set_phase("live")
        self.status.set_live(
            watermark=self.log.watermark,
            applied_seq=self.applied_seq,
            n_rows=self.n_rows,
            n_columns=self.n_columns,
            n_rules=len(self._rules),
        )

    # -- public views --------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self._offsets) - 1

    @property
    def n_columns(self) -> int:
        return len(self._vocabulary)

    def rules(self) -> RuleSet:
        """The current rule set — exactly a one-shot mine's."""
        return self._rules

    def vocabulary(self) -> Vocabulary:
        """Labels in first-appearance order (the one-shot mine's ids).
        Ids never change; later batches only append labels."""
        return self._vocabulary

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
        for receipt in self.apply_committed():
            if receipt.seq == seq and not result.duplicate:
                return receipt
        return self.receipt(seq, result.status, result.rows)

    def receipt(self, seq: int, status: str, rows: int) -> DeltaReceipt:
        """A receipt of ``seq`` without churn, against the current
        state: a duplicate, or a batch not applied yet."""
        return DeltaReceipt(
            seq=seq, status=status, watermark=self.log.watermark,
            applied_seq=self.applied_seq, rows=rows,
            n_rules=len(self._rules),
        )

    def apply_committed(self) -> List[DeltaReceipt]:
        """Apply every committed-but-unapplied segment, in order."""
        receipts = []
        while self.applied_seq < self.log.watermark:
            seq = self.applied_seq + 1
            rows = self.log.read(seq)
            if self.tracer is not None:
                with self.tracer.span(
                    "delta-apply", seq=seq, rows=len(rows),
                    trace_id=self.tracer.trace_id,
                ) as span:
                    receipt = self._apply_batch(seq, rows)
                span.attributes.update(
                    appeared=receipt.appeared,
                    disappeared=receipt.disappeared,
                    n_rules=receipt.n_rules,
                )
            else:
                receipt = self._apply_batch(seq, rows)
            receipts.append(receipt)
        return receipts

    # -- the four-step apply -------------------------------------------

    def _append(self, rows: Sequence[Sequence[str]]) -> None:
        """Step 1: map labels to ids and append the rows, each sorted
        and deduplicated like the matrix normalizes rows."""
        add = self._vocabulary.add
        ids = [sorted({add(str(label)) for label in row}) for row in rows]
        lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
        cols = np.fromiter(
            itertools.chain.from_iterable(ids), dtype=np.int64,
            count=int(lengths.sum()),
        )
        self._cols = np.concatenate([self._cols, cols])
        self._offsets = np.concatenate(
            [self._offsets, self._offsets[-1] + np.cumsum(lengths)]
        )

    def _mine(self) -> RuleSet:
        """Steps 2 and 3: the rows so far, mined by the default plan."""
        matrix = BinaryMatrix._from_csr(
            self._offsets, self._cols, self.n_columns
        )
        return mine_matrix(self.task, matrix, self.threshold, scan="vector")

    def _apply_batch(self, seq: int, rows: List[List[str]]) -> DeltaReceipt:
        before = self._rules
        self._append(rows)
        self._rules = self._mine()
        self.applied_seq = seq
        # Step 4: the churn diff.  Formatting churn events costs more
        # than the mine on rule-rich data, so only a journal pays it;
        # it builds one label table per batch, none without churn.
        diff = diff_rules(before, self._rules)
        if self.journal is not None and (diff.added or diff.removed):
            vocabulary = self.vocabulary()
            for entry in diff.entries():
                if entry.kind == "added":
                    self._journal(
                        "rule-appear", seq=seq, pair=list(entry.pair),
                        rule=entry.after.format(vocabulary),
                    )
                elif entry.kind == "removed":
                    self._journal(
                        "rule-disappear", seq=seq, pair=list(entry.pair),
                        rule=entry.before.format(vocabulary),
                    )
        self._journal(
            "delta-applied", seq=seq, rows=len(rows),
            appeared=len(diff.added), disappeared=len(diff.removed),
            changed=len(diff.changed), n_rules=len(self._rules),
        )
        # Push the batch's churn events past the journal's fsync
        # batching: deltas are low-rate, and `repro watch` followers
        # should see them as they land, not at the next 32-event mark.
        if self.journal is not None:
            self.journal.flush()
        self._publish_status()
        return DeltaReceipt(
            seq=seq, status="committed", watermark=self.log.watermark,
            applied_seq=self.applied_seq, rows=len(rows),
            appeared=len(diff.added), disappeared=len(diff.removed),
            changed=len(diff.changed), n_rules=len(self._rules),
        )

    # -- recovery ------------------------------------------------------

    def _check_config(self) -> None:
        """Raise if the root was opened with another task or threshold;
        record them at first open (a record that does not parse counts
        as absent and is written afresh)."""
        path = os.path.join(self.root, CONFIG_PATH)
        stored = None
        if self.storage.exists(path):
            try:
                with self.storage.open(
                    path, "r", encoding="utf-8"
                ) as handle:
                    stored = json.load(handle)
            except ValueError:
                pass
        if not isinstance(stored, dict):
            self.storage.makedirs(os.path.dirname(path))
            self.storage.atomic_write_text(path, json.dumps(
                {"task": self.task, "threshold": str(self.threshold)}
            ))
        elif stored.get("task") != self.task or (
            as_fraction(str(stored.get("threshold"))) != self.threshold
        ):
            raise ValueError(
                f"live root {self.root} was opened with another "
                f"configuration (task={stored.get('task')!r}, "
                f"threshold={stored.get('threshold')!r})"
            )

    def recover(self) -> None:
        """The restart path, run once by the constructor: the rows up
        to the watermark, read back from the WAL and mined once.  Their
        churn is not journalled again.  Deterministic — a restarted
        miner holds the never-crashed state."""
        self._check_config()
        self._append([
            row for _seq, rows in self.log.iter_rows() for row in rows
        ])
        self._rules = self._mine()
        self.applied_seq = self.log.watermark
        self._journal(
            "live-open", watermark=self.log.watermark,
            applied_seq=self.applied_seq, n_rules=len(self._rules),
            n_rows=self.n_rows,
        )
        if self.journal is not None:
            self.journal.flush()
        self._publish_status()
