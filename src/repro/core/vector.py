"""The vectorized second-pass engine: blocked, whole-array DMC.

This is the same machine as :func:`repro.core.miss_counting.
miss_counting_scan` — one miss-counting pass driven by a
:class:`~repro.core.policies.PairPolicy` — restructured from
row-at-a-time dict updates into numpy batch operations:

- rows are consumed in blocks of ``block_rows``; each block becomes a
  dense 0/1 matrix over the columns active in it;
- per-pair block hits come from one BLAS matmul (``D.T @ D``) on
  narrow blocks, or from the gather and packed-bitmap popcount kernels
  in :mod:`repro.matrix.ops` when the block touches too many columns
  for a dense co-occurrence matrix;
- live pairs sit in a :class:`~repro.core.candidates.PairStore`
  (parallel owner/candidate/miss/budget arrays); every miss update,
  budget check, dynamic prune, and finished-column emission is an
  array expression, and a pruning sweep at each block boundary
  compacts the arrays.

Exactness argument (why block granularity cannot change the rules):
``policy.make_rules`` applies the exact final validity test, so the
engine only has to (a) consider a *superset* of the serial engine's
valid pairs and (b) compute exact final miss counts for every pair it
emits.  A pair is admitted when it co-occurs in a block whose starting
``cnt(c_j)`` is at most the add cutoff — a superset of the serial
admission rule, which checks ``cnt(c_j)`` at the co-occurrence row.
Its initial miss count ``cnt_start(c_j)`` is exact when this is the
pair's first co-occurrence ever, and an *overstatement* only when the
pair was admitted and pruned in an earlier block — but pruning (budget
or dynamic) is sound, so such a pair is already invalid and the
overstated count only re-rejects it.  Every block update afterwards
adds the pair's exact block misses (``cnt_block(c_j) - hits_block``),
so valid pairs reach emission with exact counts and produce the same
rules, bit for bit, as the serial scan.  Pruning sweeps are therefore
pure optimization; rule-set parity is asserted by the test suite's
randomized harness.

``PipelineStats`` semantics are preserved at block granularity:
per-row histories are extended block-wise (``ScanStats.record_block``),
the pruning curve is sampled at every block boundary, a
:class:`~repro.runtime.guards.MemoryGuard` is checked between blocks,
and the Section 4.4 bitmap switch hands the surviving pairs — the
``PairStore`` arrays as they are — and the unread rows to the
Algorithm 4.1 tail (:mod:`repro.core.bitmap`), which every scan shares.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmap import bitmap_tail, emit_rules, tail_due
from repro.core.candidates import PairStore
from repro.core.miss_counting import BitmapConfig
from repro.core.policies import PairPolicy
from repro.core.rules import RuleSet
from repro.core.stats import ScanStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.ops import (
    DEFAULT_BLOCK_ROWS,
    DENSE_PAIR_COLUMNS,
    MAX_BLOCK_ROWS,
    RowBlocks,
    block_co_matrix,
    co_occurrences,
    dense_block,
    pair_hits,
)
from repro.observe.progress import NULL_OBSERVER


class _FlatBlocks:
    """Block source slicing a matrix's cached CSR-style flat arrays."""

    def __init__(self, matrix: BinaryMatrix) -> None:
        self._lengths, self._cols, self._offsets = matrix.flat_rows()
        self._pos = 0
        self.n_rows = len(self._lengths)

    def take(
        self, n: int
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        lo, hi = self._pos, min(self._pos + n, self.n_rows)
        self._pos = hi
        cols = self._cols[self._offsets[lo]:self._offsets[hi]]
        return hi - lo, self._lengths[lo:hi], cols


def vector_scan(
    matrix: BinaryMatrix,
    policy: PairPolicy,
    order: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
    block_rows: Optional[int] = None,
) -> RuleSet:
    """Run one vectorized DMC scan over an in-memory matrix.

    Drop-in replacement for :func:`repro.core.miss_counting.
    miss_counting_scan` — same parameters, same rule set, block-granular
    statistics.  ``block_rows`` tunes the batch size (default
    ``DEFAULT_BLOCK_ROWS``).
    """
    if len(policy.ones) != matrix.n_columns:
        raise ValueError(
            f"policy was built for {len(policy.ones)} columns but the "
            f"matrix has {matrix.n_columns}"
        )
    if order is None:
        # Natural order over the non-empty rows: slice the matrix's
        # cached flat arrays instead of iterating row tuples.
        source = _FlatBlocks(matrix)
        return _scan_blocks(
            source, source.n_rows, policy, stats=stats, bitmap=bitmap,
            rules=rules, guard=guard, observer=observer,
            block_rows=block_rows,
        )
    row_pairs = [(row_id, matrix.row(row_id)) for row_id in order]
    return vector_scan_rows(
        row_pairs, len(row_pairs), policy, stats=stats, bitmap=bitmap,
        rules=rules, guard=guard, observer=observer, block_rows=block_rows,
    )


def vector_scan_rows(
    rows: Iterator[Tuple[int, Tuple[int, ...]]],
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
    block_rows: Optional[int] = None,
    dense_pair_columns: int = DENSE_PAIR_COLUMNS,
) -> RuleSet:
    """Streaming core of :func:`vector_scan` (see there).

    ``rows`` yields ``(row_id, column_ids)`` pairs exactly once in scan
    order, like :func:`repro.core.miss_counting.miss_counting_scan_rows`;
    the stream is consumed strictly sequentially, block by block, so
    spill-bucket replay and checkpoint resume work unchanged.
    """
    return _scan_blocks(
        RowBlocks(rows), n_rows, policy, stats=stats, bitmap=bitmap,
        rules=rules, guard=guard, observer=observer, block_rows=block_rows,
        dense_pair_columns=dense_pair_columns,
    )


def _scan_blocks(
    source,
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
    block_rows: Optional[int] = None,
    dense_pair_columns: int = DENSE_PAIR_COLUMNS,
) -> RuleSet:
    if not policy.vector_ready():
        raise ValueError(
            "this policy's thresholds exceed the vector engine's int64 "
            "range; use the serial engine for this run"
        )
    if stats is None:
        stats = ScanStats()
    if rules is None:
        rules = RuleSet()
    if observer is None:
        observer = NULL_OBSERVER
    if block_rows is None:
        block_rows = DEFAULT_BLOCK_ROWS
    block_rows = max(1, min(int(block_rows), MAX_BLOCK_ROWS))
    started = time.perf_counter()

    ones = policy.ones_array()
    n_columns = len(ones)
    cutoff = policy.add_cutoff_array()
    count = np.zeros(n_columns, dtype=np.int64)
    store = PairStore()
    curve = stats.pruning_curve
    misses_base = stats.misses_recorded
    misses_seen = 0
    position = 0

    while position < n_rows:
        memory = store.memory_bytes()
        hand_over, tripped = tail_due(
            bitmap, guard, memory, position, n_rows - position
        )
        if hand_over:
            stats.misses_recorded = misses_base + misses_seen
            bitmap_tail(
                source, policy, count, store.owners, store.cands,
                store.misses, rules, stats, switch_at=position,
                guard_tripped=tripped, observer=observer,
            )
            stats.scan_seconds += time.perf_counter() - started
            return rules

        take = min(block_rows, n_rows - position)
        if bitmap is not None and n_rows - position > bitmap.switch_rows:
            # Never stride past the switch window: land a block
            # boundary exactly where the serial engine would first
            # check the Section 4.4 rule.
            take = min(take, n_rows - bitmap.switch_rows - position)
        block_size, lengths, cols = source.take(take)
        if not block_size:
            break

        if len(cols):
            counts_block, active, to_active, dense = dense_block(
                lengths, cols, n_columns
            )

            # -- admission: pairs co-occurring while the owner is open.
            # The full co-occurrence matrix covers discovery and the
            # live-pair miss update at once when the block is narrow
            # and mostly open; otherwise chunked discovery matmuls and
            # per-pair kernels do.
            open_positions = np.nonzero(count[active] <= cutoff[active])[0]
            co = block_co_matrix(
                dense, len(open_positions), dense_pair_columns
            )

            # New pairs are collected first and appended *after* the
            # live-pair miss update, their block misses folded in from
            # discovery's co-occurrences; a pair over budget already is
            # counted as added and swept (budget) but never stored.
            new_pairs = []
            live_keys = store.keys(n_columns)
            for owners, cands, hits in co_occurrences(
                dense, active, open_positions, co
            ):
                keep = policy.eligible_mask(owners, cands)
                budgets = policy.budget_array(owners, cands)
                keep &= count[owners] <= budgets
                keep &= ~np.isin(owners * n_columns + cands, live_keys)
                owners, cands = owners[keep], cands[keep]
                budgets = budgets[keep]
                block_miss = counts_block[owners] - hits[keep]
                misses_seen += int(block_miss.sum())
                misses = count[owners] + block_miss
                within = misses <= budgets
                over = len(within) - int(np.count_nonzero(within))
                stats.candidates_added += over
                stats.candidates_deleted += over
                stats.candidates_deleted_budget += over
                new_pairs.append((owners[within], cands[within],
                                  misses[within], budgets[within]))

            # -- miss update: block misses for every previously live
            #    pair whose owner appears in the block.
            if len(store):
                owner_counts = counts_block[store.owners]
                touched = np.nonzero(owner_counts)[0]
                if len(touched):
                    hits = pair_hits(
                        dense, to_active[store.owners[touched]],
                        to_active[store.cands[touched]], co,
                    )
                    delta = owner_counts[touched] - hits
                    store.misses[touched] += delta
                    misses_seen += int(delta.sum())

            for owners, cands, misses, budgets in new_pairs:
                store.append(owners, cands, misses, budgets)
                stats.candidates_added += len(owners)

            count += counts_block

        position += block_size

        # -- pruning sweep + finished-column emission at the boundary.
        if len(store):
            over = store.misses > store.budgets
            dynamic = policy.dynamic_prune_mask(
                store.owners, store.cands, store.misses, count,
                store.budgets,
            )
            if dynamic is None:
                delete = over
                n_dynamic = 0
            else:
                dynamic &= ~over
                delete = over | dynamic
                n_dynamic = int(dynamic.sum())
            stats.candidates_deleted += int(delete.sum())
            stats.candidates_deleted_budget += int(over.sum())
            stats.candidates_deleted_dynamic += n_dynamic

            finished = (count[store.owners] == ones[store.owners]) & ~delete
            if np.any(finished):
                emit_rules(
                    policy, store.owners[finished], store.cands[finished],
                    store.misses[finished], rules, stats,
                )
            store.compact(~(delete | finished))

        entries = len(store)
        n_lists = store.n_lists()
        memory = store.memory_bytes(n_lists)
        stats.record_block(block_size, entries, memory)
        if guard is not None:
            guard.observe(memory)
        misses_now = misses_base + misses_seen
        curve.sample(stats.rows_scanned, entries, misses_now,
                     stats.rules_emitted)
        if observer.enabled:
            observer.observe_memory(memory)
            observer.on_curve_sample(
                stats.rows_scanned, entries, misses_now,
                stats.rules_emitted,
            )
            observer.on_row(position - 1, n_rows, entries, memory)

    stats.misses_recorded = misses_base + misses_seen
    curve.sample_final(
        stats.rows_scanned, len(store), stats.misses_recorded,
        stats.rules_emitted,
    )
    if observer.enabled:
        observer.on_curve_sample(
            stats.rows_scanned, len(store), stats.misses_recorded,
            stats.rules_emitted,
        )
    stats.scan_seconds += time.perf_counter() - started
    return rules
