"""The DMC-base scan engine (Algorithm 3.1) and its 100%-rule fast path.

``miss_counting_scan`` performs the second data scan: for every row and
every column ``c_j`` set in that row it

- creates ``c_j``'s candidate list at the column's first occurrence,
- adds newly co-occurring eligible columns while ``cnt(c_j)`` is small
  enough that a fresh candidate could still be valid (its initial miss
  count is ``cnt(c_j)`` — it missed every earlier row where ``c_j`` was
  set),
- increments the miss counter of every candidate absent from the row and
  deletes a candidate the moment its counter exceeds the pair budget,
- and, once ``cnt(c_j)`` reaches ``ones(c_j)``, emits every surviving
  candidate as a rule and frees the list (step 3(b)).

All variant-specific behaviour lives in the
:class:`~repro.core.policies.PairPolicy`.  If a
:class:`BitmapConfig` is supplied the scan hands over to the DMC-bitmap
tail (:mod:`repro.core.bitmap`) when few rows remain and the counter
array has outgrown its budget (Section 4.4's switch rule).

``zero_miss_scan`` is the Section 4.3 specialization for 100% rules: no
miss counters at all — candidate lists are plain id sets, intersected
with each row — and no candidate is ever added after a column's first
occurrence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bitmap import bitmap_tail, tail_due
from repro.core.candidates import BYTES_PER_LIST, CandidateArray, list_pairs
from repro.core.policies import PairPolicy
from repro.core.rules import RuleSet
from repro.core.stats import ScanStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.ops import RowBlocks
from repro.observe.progress import NULL_OBSERVER

#: Bytes charged per id-only candidate entry in the zero-miss scan.
BYTES_PER_ID = 4


@dataclass(frozen=True)
class BitmapConfig:
    """When to switch from DMC-base to the DMC-bitmap tail.

    The paper switches when at most ``switch_rows`` rows remain (64 in
    the authors' implementation) *and* the counter array exceeds
    ``memory_budget_bytes`` (50 MB in the paper).  The scaled defaults
    here keep the same mechanism observable on synthetic data.
    """

    switch_rows: int = 64
    memory_budget_bytes: int = 50 * 2**20


def _matrix_rows(matrix: BinaryMatrix, policy: PairPolicy, order):
    """``(rows, n_rows)`` to scan: ``order``'s rows (default: stored
    order, empty rows skipped), once ``policy`` is checked to fit."""
    if len(policy.ones) != matrix.n_columns:
        raise ValueError(
            f"policy was built for {len(policy.ones)} columns but the "
            f"matrix has {matrix.n_columns}"
        )
    if order is None:
        order = [row_id for row_id, row in matrix.iter_rows() if row]
    return ((row_id, matrix.row(row_id)) for row_id in order), len(order)


def _memory_listener(guard, observer):
    """Compose the counter array's growth callback from guard+observer.

    Both want to see between-row memory spikes; neither must cost
    anything when absent.
    """
    if guard is not None and observer.enabled:
        guard_observe = guard.observe
        observer_observe = observer.observe_memory

        def listen(memory_bytes: int) -> None:
            guard_observe(memory_bytes)
            observer_observe(memory_bytes)

        return listen
    if guard is not None:
        return guard.observe
    if observer.enabled:
        return observer.observe_memory
    return None


def miss_counting_scan(
    matrix: BinaryMatrix,
    policy: PairPolicy,
    order: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
) -> RuleSet:
    """Run one DMC-base scan over an in-memory matrix.

    Parameters
    ----------
    matrix:
        The 0/1 matrix.  ``policy.ones`` must equal its column counts.
    policy:
        The mining variant (implication / similarity / identity).
    order:
        Row scan order; defaults to original order with empty rows
        skipped.  Pass :func:`repro.matrix.reorder.scan_order` for the
        Section 4.1 sparsest-first optimization.
    stats:
        Optional :class:`ScanStats` to fill with per-row measurements.
    bitmap:
        Optional switch rule for the DMC-bitmap tail.
    rules:
        Optional existing :class:`RuleSet` to append into.
    guard:
        Optional :class:`repro.runtime.guards.MemoryGuard` enforcing a
        hard budget on the counter array at every row.
    observer:
        Optional :class:`repro.observe.ProgressObserver` /
        :class:`repro.observe.RunObserver`; when disabled (the
        default) the loop pays one attribute check per row.
    """
    rows, n_rows = _matrix_rows(matrix, policy, order)
    return miss_counting_scan_rows(
        rows, n_rows, policy, stats=stats, bitmap=bitmap, rules=rules,
        guard=guard, observer=observer,
    )


def miss_counting_scan_rows(
    rows: Iterator[Tuple[int, Tuple[int, ...]]],
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
) -> RuleSet:
    """Run one DMC-base scan over a row stream (Algorithm 3.1).

    ``rows`` yields ``(row_id, column_ids)`` pairs exactly once, in
    scan order; ``n_rows`` is the total the stream will yield (known
    from the first pass).  This is the streaming core behind
    :func:`miss_counting_scan` and :mod:`repro.matrix.stream` — rows
    are consumed strictly sequentially, and on a bitmap switch the
    remainder of the stream is drained into the tail (which is exactly
    what Algorithm 4.1 does: "read the rest of the rows and create
    bitmaps").

    A ``guard`` (:class:`repro.runtime.guards.MemoryGuard`) is checked
    at every row boundary, not just within the paper's end-of-scan
    switch window: when the counter array exceeds the guard's hard
    budget the scan degrades to the DMC-bitmap tail immediately.  The
    tail is position independent, so early degradation preserves
    exactness.
    """
    if stats is None:
        stats = ScanStats()
    if rules is None:
        rules = RuleSet()
    if observer is None:
        observer = NULL_OBSERVER
    started = time.perf_counter()

    ones = policy.ones
    count = [0] * len(ones)
    cand = CandidateArray(on_memory=_memory_listener(guard, observer))
    rows = iter(rows)
    curve = stats.pruning_curve
    misses_base = stats.misses_recorded
    misses_seen = 0

    for position in range(n_rows):
        hand_over, tripped = tail_due(
            bitmap, guard, cand.memory_bytes(), position, n_rows - position
        )
        if hand_over:
            stats.misses_recorded = misses_base + misses_seen
            lists, owners, cands, misses = cand.to_pairs()
            bitmap_tail(
                RowBlocks(rows), policy, count, owners, cands, misses,
                rules, stats, switch_at=position, lists=lists,
                guard_tripped=tripped, observer=observer,
            )
            stats.scan_seconds += time.perf_counter() - started
            return rules

        try:
            _, row = next(rows)
        except StopIteration:
            break
        row_set = set(row)
        for column_j in row:
            count_j = count[column_j]
            may_add = count_j <= policy.add_cutoff(column_j)
            if may_add:
                cand_j = cand.ensure(column_j)
            else:
                cand_j = cand.get(column_j)
                if cand_j is None:
                    continue

            # Dynamic pruning sees the current row as consumed: the
            # owning column's count advances by one, and a hit also
            # advances the candidate's count.  Passing pre-row counts
            # with a post-row miss total would double-count this row
            # and prune valid pairs.
            to_delete = []
            deleted_budget = 0
            for candidate_k, misses in cand_j.items():
                if candidate_k in row_set:
                    if policy.dynamic_prune(
                        column_j, candidate_k, count_j + 1, misses,
                        count[candidate_k] + 1,
                    ):
                        to_delete.append(candidate_k)
                    continue
                misses += 1
                misses_seen += 1
                if misses > policy.pair_budget(column_j, candidate_k):
                    to_delete.append(candidate_k)
                    deleted_budget += 1
                elif policy.dynamic_prune(
                    column_j, candidate_k, count_j + 1, misses,
                    count[candidate_k],
                ):
                    to_delete.append(candidate_k)
                else:
                    cand_j[candidate_k] = misses
            for candidate_k in to_delete:
                cand.remove(column_j, candidate_k)
            stats.candidates_deleted += len(to_delete)
            stats.candidates_deleted_budget += deleted_budget
            stats.candidates_deleted_dynamic += (
                len(to_delete) - deleted_budget
            )

            if may_add:
                for candidate_k in row:
                    if candidate_k == column_j or candidate_k in cand_j:
                        continue
                    if not policy.eligible(column_j, candidate_k):
                        continue
                    if count_j > policy.pair_budget(column_j, candidate_k):
                        continue
                    if policy.dynamic_prune(
                        column_j, candidate_k, count_j + 1, count_j,
                        count[candidate_k] + 1,
                    ):
                        continue
                    cand.add(column_j, candidate_k, count_j)
                    stats.candidates_added += 1

        for column_j in row:
            count[column_j] += 1
            if count[column_j] == ones[column_j]:
                for candidate_k, misses in cand.items(column_j):
                    rule = policy.make_rule(column_j, candidate_k, misses)
                    if rule is not None:
                        rules.add(rule)
                        stats.rules_emitted += 1
                    else:
                        stats.candidates_rejected += 1
                cand.release(column_j)

        entries = cand.total_entries
        memory = cand.memory_bytes()
        stats.record_row(entries, memory)
        if curve.due(stats.rows_scanned):
            misses_now = misses_base + misses_seen
            curve.sample(
                stats.rows_scanned, entries, misses_now,
                stats.rules_emitted,
            )
            if observer.enabled:
                observer.on_curve_sample(
                    stats.rows_scanned, entries, misses_now,
                    stats.rules_emitted,
                )
        if observer.enabled:
            observer.on_row(position, n_rows, entries, memory)

    stats.misses_recorded = misses_base + misses_seen
    curve.sample_final(
        stats.rows_scanned, cand.total_entries, stats.misses_recorded,
        stats.rules_emitted,
    )
    if observer.enabled:
        observer.on_curve_sample(
            stats.rows_scanned, cand.total_entries,
            stats.misses_recorded, stats.rules_emitted,
        )
    stats.scan_seconds += time.perf_counter() - started
    return rules


def zero_miss_scan(
    matrix: BinaryMatrix,
    policy: PairPolicy,
    order: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
) -> RuleSet:
    """Section 4.3 fast path for policies whose budgets are all zero.

    Candidate lists are plain id sets (no miss counters — half the
    memory per entry) intersected against each row where the owning
    column appears; after a column's first 1 no candidate can ever be
    added.  Produces exactly the rules of :func:`miss_counting_scan`
    with the same zero-budget policy.
    """
    rows, n_rows = _matrix_rows(matrix, policy, order)
    return zero_miss_scan_rows(
        rows, n_rows, policy, stats=stats, bitmap=bitmap, rules=rules,
        guard=guard, observer=observer,
    )


def zero_miss_scan_rows(
    rows: Iterator[Tuple[int, Tuple[int, ...]]],
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
) -> RuleSet:
    """Streaming core of :func:`zero_miss_scan` (see there)."""
    if stats is None:
        stats = ScanStats()
    if rules is None:
        rules = RuleSet()
    if observer is None:
        observer = NULL_OBSERVER
    started = time.perf_counter()

    ones = policy.ones
    count = [0] * len(ones)
    lists: Dict[int, Set[int]] = {}
    entries = 0
    rows = iter(rows)
    curve = stats.pruning_curve
    misses_base = stats.misses_recorded
    misses_seen = 0

    for position in range(n_rows):
        memory = entries * BYTES_PER_ID + len(lists) * BYTES_PER_LIST
        hand_over, tripped = tail_due(
            bitmap, guard, memory, position, n_rows - position
        )
        if hand_over:
            stats.misses_recorded = misses_base + misses_seen
            list_owners, owners, cands = list_pairs(lists)
            bitmap_tail(
                RowBlocks(rows), policy, count, owners, cands,
                np.zeros(len(owners), dtype=np.int64), rules, stats,
                switch_at=position, lists=list_owners,
                guard_tripped=tripped, observer=observer,
            )
            stats.scan_seconds += time.perf_counter() - started
            return rules

        try:
            _, row = next(rows)
        except StopIteration:
            break
        row_set = set(row)
        for column_j in row:
            if count[column_j] == 0:
                created = {
                    candidate_k
                    for candidate_k in row
                    if candidate_k != column_j
                    and policy.eligible(column_j, candidate_k)
                }
                lists[column_j] = created
                entries += len(created)
                stats.candidates_added += len(created)
            else:
                candidates = lists.get(column_j)
                if candidates:
                    survivors = candidates & row_set
                    dropped = len(candidates) - len(survivors)
                    if dropped:
                        lists[column_j] = survivors
                        entries -= dropped
                        misses_seen += dropped
                        stats.candidates_deleted += dropped
                        stats.candidates_deleted_budget += dropped

        for column_j in row:
            count[column_j] += 1
            if count[column_j] == ones[column_j]:
                survivors = lists.pop(column_j, None)
                if survivors is not None:
                    entries -= len(survivors)
                    for candidate_k in survivors:
                        rule = policy.make_rule(column_j, candidate_k, 0)
                        if rule is not None:
                            rules.add(rule)
                            stats.rules_emitted += 1
                        else:
                            stats.candidates_rejected += 1

        memory = entries * BYTES_PER_ID + len(lists) * BYTES_PER_LIST
        stats.record_row(entries, memory)
        if curve.due(stats.rows_scanned):
            misses_now = misses_base + misses_seen
            curve.sample(
                stats.rows_scanned, entries, misses_now,
                stats.rules_emitted,
            )
            if observer.enabled:
                observer.on_curve_sample(
                    stats.rows_scanned, entries, misses_now,
                    stats.rules_emitted,
                )
        if observer.enabled:
            observer.on_row(position, n_rows, entries, memory)

    stats.misses_recorded = misses_base + misses_seen
    curve.sample_final(
        stats.rows_scanned, entries, stats.misses_recorded,
        stats.rules_emitted,
    )
    if observer.enabled:
        observer.on_curve_sample(
            stats.rows_scanned, entries, stats.misses_recorded,
            stats.rules_emitted,
        )
    stats.scan_seconds += time.perf_counter() - started
    return rules
