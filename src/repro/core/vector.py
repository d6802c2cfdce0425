"""The vectorized second-pass engine: blocked, whole-array DMC.

This is the same machine as :func:`repro.core.miss_counting.
miss_counting_scan` — one miss-counting pass driven by a
:class:`~repro.core.policies.PairPolicy` — restructured from
row-at-a-time dict updates into numpy batch operations:

- rows are consumed in blocks of ``block_rows``; each block becomes the
  packed bitmaps of the columns active in it, set from its entries;
- per-pair block hits are popcounts of the pairs' ANDed bitmaps and
  new pairs come from sparse CSR products (:mod:`repro.matrix.ops`),
  so the cost follows the block's ones, not its cells;
- live pairs sit in a :class:`~repro.core.candidates.PairStore`
  (parallel owner/candidate/miss/budget arrays); every miss update,
  budget check, dynamic prune, and finished-column emission is an
  array expression, and a pruning sweep at each block boundary
  compacts the arrays.

Admission is row-exact, and discovery finds only admissible pairs.
The serial scan adds ``c_k`` to ``c_j``'s list only at a row where
``cnt(c_j)`` is within the add cutoff; here an owner whose block-start
count ``cnt_start(c_j)`` is within it gets an allowance of ``cutoff -
cnt_start + 1`` rows, and discovery (:func:`repro.core.bitmap.
new_pairs`, shared with the bitmap tail) pairs it only over its first
that many rows of the block.  Which candidates it pairs with is a
window of the canonical column order (:class:`repro.matrix.ops.
CanonicalOrder`, ranked once per scan): the columns after the owner
whose ``ones`` are at most the policy's ceiling at ``cnt_start``
(:meth:`~repro.core.policies.PairPolicy.cand_ceiling`).  The window is
eligibility plus the pair-budget test at admission, so no admission
filter runs after discovery.  For every policy whose pair budget is
its add cutoff (implication, 100%, identical columns) the engine
admits exactly the serial scan's pairs, and its candidate counters
match; a similarity policy may admit more, because its per-pair budget
is checked against ``cnt_start`` and its dynamic check runs in the
block's sweep.  Every pass of a vector plan, the 100% pass included
(on lists of the removed columns only), runs here.

Exactness argument (why block granularity cannot change the rules):
``policy.make_rules`` applies the exact final validity test, so the
engine only has to (a) admit every valid pair and (b) compute exact
final miss counts for every pair it emits.  (a): every row of ``c_j``
before a pair's first co-occurrence is a miss, so a valid pair first
co-occurs at a row where ``cnt(c_j) <= maxmiss <= cutoff`` — a row
within its owner's allowance.  (b): a pair admitted in a block ends it
at ``cnt_end(c_j) - hits_block`` misses, with ``hits_block`` over the
whole block (from the kernels when the allowance is shorter than the
owner's rows in the block).  That is exact when the block holds the
pair's first co-occurrence, and an *overstatement* only when the pair
was admitted and pruned in an earlier block — but pruning (budget or
dynamic) is sound, so such a pair is already invalid and the
overstated count only re-rejects it.  Every block update afterwards
adds the pair's exact block misses (``cnt_block(c_j) - hits_block``),
so valid pairs reach emission with exact counts and produce the same
rules, bit for bit, as the serial scan.  Pruning sweeps are therefore
pure optimization; rule-set parity is asserted by the test suite's
randomized harness.

``PipelineStats`` semantics are preserved at block granularity:
``ScanStats.record_rows`` counts a whole block's rows and takes the
peaks at its boundary, the pruning curve is sampled at every block
boundary, and the bitmap switch (the Section 4.4 rule, or its hard
budget at any boundary; under a hard budget blocks grow 1, 2, 4, ...
rows, so the budget is checked from the second row on, as in the
serial scan's row walk) hands the surviving pairs — the ``PairStore``
arrays as they are — and the unread rows to the Algorithm 4.1 tail
(:mod:`repro.core.bitmap`), which every scan shares.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmap import bitmap_tail, emit_rules, new_pairs, tail_due
from repro.core.candidates import PairStore
from repro.core.miss_counting import BitmapConfig, matrix_order
from repro.core.policies import PairPolicy
from repro.core.rules import RuleSet
from repro.core.stats import ScanStats
from repro.matrix.binary_matrix import (
    BinaryMatrix,
    concat_ranges,
    int64_array,
)
from repro.matrix.ops import (
    DEFAULT_BLOCK_ROWS,
    CanonicalOrder,
    block_bitmaps,
    pair_and_counts,
)
from repro.observe.progress import NULL_OBSERVER


class MatrixBlocks:
    """Block source slicing a matrix's CSR rows in scan ``order``."""

    def __init__(self, matrix: BinaryMatrix, order) -> None:
        self._offsets, self._cols = matrix.offsets, matrix.cols
        self._lengths = matrix.row_densities()
        self._order = int64_array(order, "row ids")
        self._pos = 0
        self.n_rows = len(self._order)

    def take(self, n: int) -> Tuple[int, np.ndarray, np.ndarray]:
        rows = self._order[self._pos:self._pos + n]
        self._pos += len(rows)
        lengths = self._lengths[rows]
        cols = self._cols[concat_ranges(self._offsets[rows], lengths)]
        return len(rows), lengths, cols


def vector_scan(
    matrix: BinaryMatrix,
    policy: PairPolicy,
    order: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    observer=None,
    block_rows: Optional[int] = None,
) -> RuleSet:
    """Run one vectorized DMC scan over an in-memory matrix.

    Drop-in replacement for :func:`repro.core.miss_counting.
    miss_counting_scan` — same parameters, same rule set, block-granular
    statistics.  ``block_rows`` tunes the batch size (default
    ``DEFAULT_BLOCK_ROWS``).
    """
    source = MatrixBlocks(matrix, matrix_order(matrix, policy, order))
    return vector_scan_rows(
        source, source.n_rows, policy, stats=stats, bitmap=bitmap,
        rules=rules, observer=observer, block_rows=block_rows,
    )


def vector_scan_rows(
    source,
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    observer=None,
    block_rows: Optional[int] = None,
) -> RuleSet:
    """Streaming core of :func:`vector_scan` (see there).

    ``source`` is a block source (``take(n) -> (n, lengths, cols)``)
    serving every row exactly once in scan order: :class:`MatrixBlocks`
    over a matrix's CSR rows, or the stream carrier's replay of its
    spill-bucket records (:mod:`repro.matrix.stream`).  It is consumed
    strictly sequentially, block by block, so spill-bucket replay and
    checkpoint resume work unchanged.
    """
    if stats is None:
        stats = ScanStats()
    if rules is None:
        rules = RuleSet()
    if observer is None:
        observer = NULL_OBSERVER
    if block_rows is None:
        block_rows = DEFAULT_BLOCK_ROWS
    block_rows = max(1, int(block_rows))
    started = time.perf_counter()

    ones = policy.ones_array()
    n_columns = len(ones)
    cutoff = policy.add_cutoff_array()
    count = np.zeros(n_columns, dtype=np.int64)
    order = CanonicalOrder(ones, policy.after_owner)
    store = PairStore()
    curve = stats.pruning_curve
    misses_base = stats.misses_recorded
    misses_seen = 0
    position = 0
    # Under a hard budget, blocks grow 1, 2, 4, ... rows up to
    # ``block_rows``, so the budget is checked early in the scan too.
    ramp = block_rows
    if bitmap is not None and bitmap.hard_budget_bytes is not None:
        ramp = 1

    while position < n_rows:
        memory = store.memory_bytes()
        hand_over, tripped = tail_due(
            bitmap, memory, position, n_rows - position
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

        take = min(ramp, n_rows - position)
        ramp = min(2 * ramp, block_rows)
        if bitmap is not None and n_rows - position > bitmap.switch_rows:
            # Never stride past the switch window: land a block
            # boundary exactly where the serial engine would first
            # check the Section 4.4 rule.
            take = min(take, n_rows - bitmap.switch_rows - position)
        block_size, lengths, cols = source.take(take)
        if not block_size:
            break

        if len(cols):
            counts_block, active, to_active, bitmaps = block_bitmaps(
                lengths, cols, n_columns
            )
            block = (lengths, cols, counts_block, active, to_active)

            # -- admission: the serial scan adds ``c_k`` to ``c_j``'s
            # list only at a row where ``cnt(c_j)`` is within the add
            # cutoff, so an open owner pairs over its first
            # ``cutoff - cnt + 1`` rows of the block alone, and only
            # with the candidates of its canonical window: after it in
            # canonical order, with ``ones`` at most the policy's
            # ceiling at its block-start count.
            allowance = cutoff[active] - count[active] + 1
            open_positions = np.flatnonzero(allowance > 0)
            open_owners = active[open_positions]
            ends = order.ends(policy.cand_ceiling(
                open_owners, count[open_owners]
            ))

            # New pairs are collected first and appended *after* the
            # live-pair miss update, with their exact block misses; a
            # pair over budget already is counted as added and swept
            # (budget) but never stored.
            new = []
            for owners, cands, hits in new_pairs(
                block, open_positions, allowance[open_positions], order, ends,
                bitmaps, store.keys(n_columns),
            ):
                budgets = policy.budget_array(owners, cands)
                block_miss = counts_block[owners] - hits
                misses_seen += int(block_miss.sum())
                misses = count[owners] + block_miss
                within = misses <= budgets
                over = len(within) - int(np.count_nonzero(within))
                stats.candidates_added += over
                stats.candidates_deleted += over
                stats.candidates_deleted_budget += over
                new.append((owners[within], cands[within],
                            misses[within], budgets[within]))

            # -- miss update: block misses for every previously live
            #    pair whose owner appears in the block.
            if len(store):
                owner_counts = counts_block[store.owners]
                touched = np.nonzero(owner_counts)[0]
                if len(touched):
                    hits = pair_and_counts(
                        bitmaps, to_active[store.owners[touched]],
                        to_active[store.cands[touched]],
                    )
                    delta = owner_counts[touched] - hits
                    store.misses[touched] += delta
                    misses_seen += int(delta.sum())

            for owners, cands, misses, budgets in new:
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
        stats.record_rows(block_size, entries, memory)
        misses_now = misses_base + misses_seen
        curve.sample(stats.rows_scanned, entries, misses_now,
                     stats.rules_emitted)
        if observer.enabled:
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
