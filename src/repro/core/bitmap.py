"""The DMC-bitmap low-memory tail (Algorithm 4.1).

Scanning the densest rows last (Section 4.1) concentrates candidate
creation at the end of the scan, which can explode the counter array
(Figure 3).  When the switch rule fires, the remaining rows are read
as per-column bitmaps and the scan finishes in two phases:

- **Phase 1** — columns whose ``cnt`` already exceeds their add cutoff
  can gain no new candidates, so each existing candidate's final miss
  count is its current count plus ``popcount(bm(c_j) & ~bm(c_k))``.
- **Phase 2** — columns that could still gain candidates are finished
  by *hit* counting over the remaining rows, which also discovers new
  eligible pairs, row-exactly: an owner pairs only over the rows where
  its count is still within its add cutoff, and only with the columns
  of its eligibility window (:func:`new_pairs`, the vector scan's
  discovery step, with the windows of a zero count).  A pair first
  meeting later has missed more often than any budget allows.

Both phases are array expressions over one block-by-block walk of the
remaining rows with the vector engine's two kernels (:mod:`repro.
matrix.ops`): popcounts over each block's packed column bitmaps for
listed pairs, sparse products for new ones.  It sums each column's
remaining ones ``rem(c_j)`` and each pair's remaining co-occurrences
``co(j, k)``: a pair already on a list ends at ``misses + rem(c_j) -
co(j, k)``, a new pair of an open owner at ``ones(c_j) - co(j, k)``
(tail-only hits).  A column not on ``c_j``'s list at switch time
either never co-occurred with ``c_j`` (its prior hits are exactly
zero) or was pruned because the pair is permanently invalid (then the
tail-only hits under-state the true hits, the miss count over-states
the true misses, and the exact final test still rejects it) — so the
tail keeps DMC's zero-error guarantee.

Every scan (serial, zero-miss, vector) and every policy shares this
tail, including the identical-column variant of DMC-sim step 2.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.core.policies import PairPolicy
from repro.core.rules import RuleSet
from repro.core.stats import ScanStats
from repro.matrix.ops import (
    DEFAULT_BLOCK_ROWS,
    CanonicalOrder,
    block_bitmaps,
    co_occurrences,
    pair_and_counts,
)
from repro.observe.progress import NULL_OBSERVER


def tail_due(
    bitmap, memory: int, position: int, rows_left: int
) -> Tuple[bool, bool]:
    """``(hand_over, guard_tripped)`` at a row or block boundary, the
    one place a scan decides to hand over to the tail: a
    ``BitmapConfig``'s Section 4.4 rule fires in its end-of-scan
    window, or else its ``hard_budget_bytes`` forces an early hand-over
    past the first row."""
    if bitmap is None:
        return False, False
    if rows_left <= bitmap.switch_rows and memory > bitmap.memory_budget_bytes:
        return True, False
    hard = bitmap.hard_budget_bytes
    tripped = hard is not None and position > 0 and memory > hard
    return tripped, tripped


def emit_rules(
    policy: PairPolicy,
    owners: np.ndarray,
    cands: np.ndarray,
    misses: np.ndarray,
    rules: RuleSet,
    stats: ScanStats,
) -> None:
    """Emit the valid pairs as rules; count the others as rejected.

    The one emission path: the serial, zero-miss and vector scans and
    the tail all hand their finished pairs here."""
    columns = policy.make_rules(owners, cands, misses)
    rules.add_columns(policy.rule_type, *columns)
    emitted = len(columns[0])
    stats.rules_emitted += emitted
    stats.candidates_rejected += len(owners) - emitted


def new_pairs(block, picked, allowance, order, ends, bitmaps, live_keys):
    """Yield ``(owners, cands, hits)`` for the block's pairs of the
    owners at dense indices ``picked``, each over its first
    ``allowance`` rows and within its window of the
    :class:`~repro.matrix.ops.CanonicalOrder` ``order`` ending at
    ``ends``, whose ``owner * n_columns + cand`` key is not in
    ``live_keys``: the discovery step of the vector scan and the tail.
    The windows are the admission test, so every pair discovery finds
    is admissible and only the live pairs are filtered out, by one sort
    of ``live_keys`` per call and a ``searchsorted`` per chunk.
    ``block`` is ``(lengths, cols, counts, active, to_active)``; a
    capped owner's whole-block ``hits`` are popcounts of the block's
    packed ``bitmaps`` (:func:`~repro.matrix.ops.block_bitmaps`)."""
    lengths, cols, counts, active, to_active = block
    n_columns = len(to_active)
    capped = np.zeros(len(active) + 1, dtype=bool)
    capped[picked] = allowance < counts[active[picked]]
    # A sentinel above every key keeps each lookup inside the array.
    live = np.append(np.sort(live_keys), n_columns * n_columns)
    for owners, cands, hits in co_occurrences(
        lengths, cols, to_active, active, picked, order, ends, allowance,
    ):
        keys = owners * n_columns + cands
        fresh = live[np.searchsorted(live, keys)] != keys
        owners, cands, hits = owners[fresh], cands[fresh], hits[fresh]
        partial = np.flatnonzero(capped[to_active[owners]])
        if len(partial):
            hits[partial] = pair_and_counts(
                bitmaps, to_active[owners[partial]], to_active[cands[partial]]
            )
        yield owners, cands, hits


def bitmap_tail(
    source,
    policy: PairPolicy,
    count,
    owners: np.ndarray,
    cands: np.ndarray,
    misses: np.ndarray,
    rules: RuleSet,
    stats: ScanStats,
    switch_at: int,
    lists: Optional[np.ndarray] = None,
    guard_tripped: bool = False,
    observer=None,
) -> None:
    """Finish a miss-counting scan over the rows ``source`` has left.

    ``source`` is a block source (``take(n) -> (n, lengths, cols)``,
    see :mod:`repro.matrix.ops`) at scan row ``switch_at``; ``count``
    holds ``cnt(c_j)`` there and ``owners``/``cands``/``misses`` the
    live pairs.  ``lists`` names every column owning a live list, empty
    ones included (default: the pairs' owners).  ``guard_tripped`` marks
    a hand-over the hard budget forced.  Rules go into ``rules``; the
    switch, the tail's measurements and the candidates it discovers or
    rejects go on ``stats``, so the added/deleted/emitted accounting
    stays exact.  ``observer`` gets a ``bitmap-tail`` span with one
    child span per phase.
    """
    if observer is None:
        observer = NULL_OBSERVER
    started = time.perf_counter()
    stats.bitmap_switch_at = switch_at
    if guard_tripped:
        stats.guard_tripped_at = switch_at
    if observer.enabled:
        if guard_tripped:
            observer.on_guard_trip(switch_at)
        observer.on_bitmap_switch(switch_at)
    span_fields = {"guard_tripped": True} if guard_tripped else {}
    with observer.span("bitmap-tail", **span_fields):
        count = np.asarray(count, dtype=np.int64)
        ones = policy.ones_array()
        n_columns = len(ones)
        cutoff = policy.add_cutoff_array()
        closed = count > cutoff
        # The tail admits by eligibility alone: its windows are those
        # of a zero count.
        order = CanonicalOrder(ones, policy.after_owner)
        tail_ends = order.ends(policy.cand_ceiling(
            np.arange(n_columns), np.zeros(n_columns, dtype=np.int64)
        ))
        if lists is None:
            lists = np.unique(owners)
        n_live = len(owners)  # pairs discovered here are appended
        remaining = np.zeros(n_columns, dtype=np.int64)
        co = np.zeros(n_live, dtype=np.int64)
        n_rows = 0

        # Phase 2's row walk; Phase 1's popcounts ride along on it.
        with observer.span("bitmap-phase2"):
            while True:
                size, lengths, cols = source.take(DEFAULT_BLOCK_ROWS)
                if not size:
                    break
                n_rows += size
                if not len(cols):
                    continue
                counts, active, to_active, bitmaps = block_bitmaps(
                    lengths, cols, n_columns
                )
                block = (lengths, cols, counts, active, to_active)
                allowance = cutoff[active] - (count + remaining)[active] + 1
                picked = np.flatnonzero(allowance > 0)
                remaining += counts
                touched = np.flatnonzero(counts[owners])
                if len(touched):
                    co[touched] += pair_and_counts(
                        bitmaps, to_active[owners[touched]],
                        to_active[cands[touched]],
                    )
                if len(picked):
                    ends = (
                        None if tail_ends is None
                        else tail_ends[active[picked]]
                    )
                    owners, cands, co = map(np.concatenate, zip(
                        (owners, cands, co),
                        *new_pairs(
                            block, picked, allowance[picked], order, ends,
                            bitmaps, owners * n_columns + cands,
                        ),
                    ))

            stats.candidates_added += len(owners) - n_live
            final = np.concatenate([
                misses + remaining[owners[:n_live]], ones[owners[n_live:]]
            ])
            final -= co
            # Pairs past n_live are new, so all of them are open.
            live_open = ~closed[owners[:n_live]]
            for pick in (np.flatnonzero(live_open), slice(n_live, None)):
                emit_rules(
                    policy, owners[pick], cands[pick], final[pick], rules,
                    stats,
                )
            stats.bitmap_phase2_columns = len(np.union1d(
                lists[~closed[lists]],
                np.flatnonzero((remaining > 0) & ~closed),
            ))

        with observer.span("bitmap-phase1"):
            stats.bitmap_phase1_columns += int(
                np.count_nonzero(closed[lists])
            )
            pick = np.flatnonzero(~live_open)
            stats.misses_recorded += int((final[pick] - misses[pick]).sum())
            emit_rules(
                policy, owners[pick], cands[pick], final[pick], rules, stats
            )

        # Modelled size of the Algorithm 4.1 bitmaps of the remaining
        # rows: one bit per row for every column with a remaining 1.
        stats.bitmap_bytes = int(np.count_nonzero(remaining)) * (
            (n_rows + 7) // 8
        )
        observer.annotate(rows_remaining=n_rows)

    # The tail resolves every surviving candidate, so the curve closes
    # at zero live candidates.  Rows consumed here never went through
    # record_rows, so the x coordinate stays at the switch point — the
    # curve documents the DMC-base trajectory, with this one terminal
    # point marking the bitmap hand-over.
    stats.pruning_curve.sample_final(
        stats.rows_scanned, 0, stats.misses_recorded, stats.rules_emitted
    )
    if observer.enabled:
        observer.on_curve_sample(
            stats.rows_scanned, 0, stats.misses_recorded,
            stats.rules_emitted,
        )
    stats.bitmap_seconds += time.perf_counter() - started
