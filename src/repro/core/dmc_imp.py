"""DMC-imp (Algorithm 4.2) and the DMC phase sequence every carrier runs.

Steps, as in the paper:

1. Pre-scan: count ``ones(c_i)`` and bucket rows by density (Section
   4.1) so the second scan reads sparsest rows first.
2. Extract the 100%-confidence rules of the columns step 3 removes
   (only they own lists) with the plan's scan and its bitmap tail: the
   simplified (id-set) scan when serial, else the vector scan.
3. Remove every column whose miss budget is zero — such columns can only
   participate in 100% rules, which step 2 already found.  (We use the
   exact ``maxmiss == 0`` cutoff; see DESIGN.md on the paper's
   off-by-one.)
4. Extract the remaining ``>= minconf`` rules, the kept columns' 100%
   rules among them, with DMC-base + DMC-bitmap over the restricted
   matrix.

DMC-sim (Algorithm 5.1) runs the same steps; only the pair policies and
the removal cutoff differ (:data:`TASKS`).  :func:`mine_passes` writes
steps 2-4 once for both tasks over any row source: the in-memory matrix
(:func:`mine_matrix`) or the spill buckets of :mod:`repro.matrix.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.miss_counting import (
    BitmapConfig,
    miss_counting_scan_rows,
    zero_miss_scan_rows,
)
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    PairPolicy,
    SimilarityPolicy,
)
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats, ScanStats
from repro.core.thresholds import (
    as_fraction,
    confidence_removal_cutoff,
    similarity_removal_cutoff,
)
from repro.core.vector import MatrixBlocks, vector_scan_rows
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.observe.progress import NULL_OBSERVER


@dataclass(frozen=True)
class PruningOptions:
    """Toggles for the paper's optimizations (ablation benchmarks).

    Every toggle is semantics-preserving: disabling one changes time and
    memory, never the mined rules.
    """

    #: Section 4.1 — scan sparsest density buckets first (the streaming
    #: carrier's spill buckets always do, so it rejects False).
    row_reordering: bool = True
    #: Section 4.3 — split mining into a 100%-rule pass plus a
    #: low-frequency column removal before the <100% pass.
    hundred_percent_pass: bool = True
    #: Section 4.2 — switch to DMC-bitmap near the end of the scan, or
    #: at once past a hard budget (None disables the switch entirely).
    bitmap: Optional[BitmapConfig] = field(default_factory=BitmapConfig)
    #: Section 5.1 — drop pairs whose cardinality ratio is below minsim
    #: (similarity mining only).
    density_pruning: bool = True
    #: Section 5.2 — drop pairs whose best achievable similarity is
    #: below minsim (similarity mining only).
    max_hits_pruning: bool = True


@dataclass(frozen=True)
class DmcTask:
    """The only per-task choices of the DMC phase sequence."""

    #: Step 2's zero-miss policy, built from ``(ones, owners)``.
    hundred_policy: Callable[[Sequence[int], np.ndarray], PairPolicy]
    #: Step 3: columns with ``ones <= cutoff(threshold)`` are removed.
    removal_cutoff: Callable[[Fraction], int]
    #: Step 4's policy, built from ``(ones, threshold, options)``.
    partial_policy: Callable[
        [Sequence[int], Fraction, PruningOptions], PairPolicy
    ]


def _similarity_policy(ones, minsim, options: PruningOptions):
    return SimilarityPolicy(
        ones,
        minsim,
        use_density_pruning=options.density_pruning,
        use_max_hits_pruning=options.max_hits_pruning,
    )


#: ``"implication"`` is DMC-imp, ``"similarity"`` is DMC-sim.
TASKS: Dict[str, DmcTask] = {
    "implication": DmcTask(
        HundredPercentPolicy,
        confidence_removal_cutoff,
        lambda ones, minconf, options: ImplicationPolicy(ones, minconf),
    ),
    "similarity": DmcTask(
        IdentityPolicy, similarity_removal_cutoff, _similarity_policy
    ),
}


#: ``rows_for(kept, scan_stats) -> (rows, n_rows)``: the carrier's rows
#: in scan order, with every column outside ``kept`` (a bool mask over
#: the column ids; ``None`` keeps all) dropped, in the form the
#: carrier's scan reads: a ``(row_id, columns)`` stream for the serial
#: scans (in-memory only), a block source (``take(n) -> (n, lengths,
#: cols)``) for the vector scan — :class:`repro.core.vector.
#: MatrixBlocks` over an in-memory matrix's CSR arrays, or the stream
#: carrier's replay of its spill-bucket records.  ``scan_stats`` is the
#: pass's :class:`ScanStats`, for counters the row source itself keeps
#: (spill I/O retries).
RowSource = Callable[
    [Optional[np.ndarray], ScanStats],
    Tuple[Any, int],
]


def mine_passes(
    task: str,
    threshold,
    ones: Sequence[int],
    rows_for: RowSource,
    options: PruningOptions,
    scan: str,
    stats: PipelineStats,
    observer,
) -> RuleSet:
    """Steps 2-4 of DMC-imp / DMC-sim (or the ``combined`` ablation).

    ``ones`` are the pre-scan's column counts and ``rows_for`` the
    carrier's row source (see :data:`RowSource`).  Every pass runs
    ``scan``, ``"serial"`` (only ``engine="dmc"`` picks it) or
    ``"vector"``, which ``stats.scan_engine`` records; under
    ``"serial"`` the 100% pass runs its Section 4.3 specialization, the
    zero-miss scan.  Every policy's int64 twins are exact, so both
    scans take any threshold.
    Phases are timed into ``stats.timer`` and reported to ``observer``.
    """
    threshold = as_fraction(threshold)
    spec = TASKS[task]
    rules = RuleSet()
    stats.columns_total = len(ones)
    stats.scan_engine = scan

    if scan == "serial":
        hundred_scan, partial_scan = (
            zero_miss_scan_rows, miss_counting_scan_rows
        )
    else:
        hundred_scan = partial_scan = vector_scan_rows

    def scan(run, policy, kept, scan_stats: ScanStats) -> None:
        rows, n_rows = rows_for(kept, scan_stats)
        run(
            rows,
            n_rows,
            policy,
            stats=scan_stats,
            bitmap=options.bitmap,
            rules=rules,
            observer=observer,
        )

    if not options.hundred_percent_pass:
        # Ablation: one combined pass over every column.
        with observer.phase("combined", stats.timer):
            policy = spec.partial_policy(ones, threshold, options)
            scan(partial_scan, policy, None, stats.partial_scan)
        stats.rules_partial = len(rules)
        return rules

    # Step 3's mask first: the <100% pass emits a kept column's 100%
    # rules again (ALGORITHMS.md §4), so only the removed columns own
    # lists in step 2; at threshold 1 every column counts as removed.
    counts = np.asarray(ones, dtype=np.int64)
    kept = np.zeros(len(counts), dtype=bool)
    if threshold < 1:
        kept = counts > spec.removal_cutoff(threshold)

    with observer.phase("100%-rules", stats.timer):
        policy = spec.hundred_policy(ones, ~kept)
        scan(hundred_scan, policy, None, stats.hundred_percent_scan)

    if threshold < 1:
        with observer.phase("<100%-rules", stats.timer):
            stats.columns_removed = len(counts) - int(kept.sum())
            # Removed columns count as all-zero: exactly the restricted
            # matrix's column_ones, without a recount.
            policy = spec.partial_policy(
                np.where(kept, counts, 0), threshold, options
            )
            scan(partial_scan, policy, kept, stats.partial_scan)

    part, whole = rules.columns()[2:]
    stats.rules_hundred_percent = int(np.count_nonzero(part == whole))
    stats.rules_partial = len(rules) - stats.rules_hundred_percent
    return rules


def mine_matrix(
    task: str,
    matrix: BinaryMatrix,
    threshold,
    options: Optional[PruningOptions] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
    scan: str = "serial",
) -> RuleSet:
    """Step 1 over an in-memory matrix, then :func:`mine_passes` with
    ``scan``.

    The row source serves the pre-scan's bucket order for the full
    matrix and re-buckets the restricted matrix for step 4 (removed
    columns make rows sparser): as CSR row blocks to the vector scan,
    as row tuples to the serial scans.
    """
    if options is None:
        options = PruningOptions()
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER
    sparsest_first = options.row_reordering

    with observer.phase("pre-scan", stats.timer):
        ones = matrix.column_ones()
        order = scan_order(matrix, sparsest_first=sparsest_first)

    def rows_for(kept, scan_stats):
        source, source_order = matrix, order
        if kept is not None:
            source = matrix.restrict_columns(np.flatnonzero(kept))
            source_order = scan_order(source, sparsest_first=sparsest_first)
        if scan == "vector":
            return MatrixBlocks(source, source_order), len(source_order)
        return source.iter_rows(source_order), len(source_order)

    return mine_passes(
        task, threshold, ones, rows_for, options, scan, stats, observer
    )


def find_implication_rules(
    matrix: BinaryMatrix,
    minconf,
    options: Optional[PruningOptions] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
) -> RuleSet:
    """Mine every canonical rule with confidence ``>= minconf``.

    This is the library's primary implication-mining entry point.  The
    result is exact: no false positives, no false negatives (within the
    paper's canonical-direction convention, Section 2).  ``observer``
    (a :class:`repro.observe.RunObserver` or any
    :class:`repro.observe.ProgressObserver`) watches phases, rows and
    the bitmap switch; it never changes the mined rules.
    """
    return mine_matrix(
        "implication", matrix, minconf, options, stats, observer
    )
