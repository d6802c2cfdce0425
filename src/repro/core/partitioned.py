"""Divide-and-conquer DMC (the Section 7 future-work extension).

The paper closes by noting that scaling beyond main memory needs a
parallel algorithm "based on a divide-and-conquer technique, such as FDM
for a-priori".  This module implements that idea for both rule kinds:

1. Split the rows into ``n_partitions`` chunks.
2. Mine each chunk independently at the same threshold.
3. Union the locally-valid pairs as global candidates.
4. Verify each candidate exactly against the full column sets.

Soundness rests on the weighted-mean argument: global confidence of a
*directed* pair is the ``ones``-weighted mean of its local confidences,
and global similarity is the ``union``-weighted mean of local
similarities, so a globally valid pair must be locally valid in at
least one partition.  Local mining therefore uses an *all-pairs*
implication policy (a pair's canonical direction can differ between a
partition and the full data), and candidates are verified only in their
global canonical direction.

With ``n_workers > 1`` the partitions are mined on a spawn-context
:class:`concurrent.futures.ProcessPoolExecutor`; a worker that dies
breaks the pool, and the run raises
:class:`~concurrent.futures.process.BrokenProcessPool` instead of
returning a partial rule set.  With ``n_workers`` unset or ``<= 1``
the partitions run in-process, one after another.

At the scales this repository measures, divide and conquer loses to
the single-pass pipeline on both time and memory (ALGORITHMS.md,
section 6); a memory budget degrades through the DMC-bitmap tail
instead (:class:`repro.runtime.guards.MemoryGuard`).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Set, Tuple

from repro.core.dmc_imp import vector_exact
from repro.core.miss_counting import miss_counting_scan
from repro.core.policies import ImplicationPolicy, SimilarityPolicy
from repro.core.rules import (
    ImplicationRule,
    RuleSet,
    SimilarityRule,
    canonical_before,
)
from repro.core.stats import PipelineStats, ScanStats
from repro.core.thresholds import (
    as_fraction,
    confidence_holds,
    similarity_holds,
)
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.ops import DEFAULT_BLOCK_ROWS
from repro.matrix.reorder import scan_order
from repro.observe.progress import NULL_OBSERVER


class _AllPairsImplicationPolicy(ImplicationPolicy):
    """Implication policy without the canonical-direction restriction.

    Local partitions must mine both directions of every pair because the
    globally canonical direction may be locally non-canonical.
    """

    def eligible(self, column_j: int, candidate_k: int) -> bool:
        return column_j != candidate_k

    def eligible_mask(self, owners, cands):
        return owners != cands


def _partition_rows(matrix: BinaryMatrix, n_partitions: int) -> List[List[int]]:
    """Round-robin row ids into ``n_partitions`` non-empty-safe chunks."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be at least 1")
    chunks: List[List[int]] = [[] for _ in range(n_partitions)]
    for row_id in range(matrix.n_rows):
        chunks[row_id % n_partitions].append(row_id)
    return [chunk for chunk in chunks if chunk]


def _mine_chunk(args, observer=None) -> List[Tuple[int, int]]:
    """Worker: mine one partition and return its unordered pairs.

    Module-level (not a closure) so it is picklable for the process
    pool.  The payload is ``(rows, n_columns, threshold, kind,
    scan_engine, vector_block_rows)``.  ``observer`` is the parent's
    when partitions run in-process (pool workers run unobserved); the
    chunk's scan folds onto its metrics under ``scan="partition"``.
    """
    rows, n_columns, threshold, kind, scan_engine, vector_block_rows = args
    local = BinaryMatrix(rows, n_columns=n_columns)
    if kind == "implication":
        policy = _AllPairsImplicationPolicy(
            local.column_ones(), threshold
        )
    else:
        policy = SimilarityPolicy(local.column_ones(), threshold)
    scan_stats = ScanStats()
    span = (
        observer.span(
            "partition-scan", rows=len(rows), columns=n_columns, kind=kind,
        )
        if hasattr(observer, "span")
        else nullcontext()
    )
    with span:
        if scan_engine == "vector":
            from repro.core.vector import vector_scan

            local_rules = vector_scan(
                local, policy, order=scan_order(local), stats=scan_stats,
                observer=observer, block_rows=vector_block_rows,
            )
        else:
            local_rules = miss_counting_scan(
                local, policy, order=scan_order(local), stats=scan_stats,
                observer=observer,
            )
    metrics = getattr(observer, "metrics", None)
    if metrics is not None:
        metrics.record_scan("partition", scan_stats)
    pairs = {
        (min(rule.pair), max(rule.pair)) for rule in local_rules
    }
    return sorted(pairs)


def _local_candidates(
    matrix: BinaryMatrix,
    threshold,
    n_partitions: int,
    kind: str,
    n_workers: Optional[int],
    stats: PipelineStats,
    observer,
    scan_engine: str = "serial",
    vector_block_rows: Optional[int] = None,
) -> Set[Tuple[int, int]]:
    """Mine every partition (in-process or on the spawn pool) and union
    the locally-valid pairs.

    ``scan_engine="vector"`` runs serial when the whole matrix's
    policy has inexact int64 twins.  (A partition's counts never
    exceed the matrix's, so an exact whole-matrix policy makes every
    partition's exact.)  The scan that ran is stamped on
    ``stats.vector_block_rows``.
    """
    stats.vector_block_rows = None
    if scan_engine == "vector" and vector_exact(
        kind, threshold, matrix.column_ones()
    ):
        stats.vector_block_rows = (
            DEFAULT_BLOCK_ROWS if vector_block_rows is None
            else vector_block_rows
        )
    else:
        scan_engine, vector_block_rows = "serial", None
    jobs = [
        (
            [matrix.row(row_id) for row_id in chunk],
            matrix.n_columns,
            threshold,
            kind,
            scan_engine,
            vector_block_rows,
        )
        for chunk in _partition_rows(matrix, n_partitions)
    ]
    if not jobs:  # empty matrix: nothing to mine, no pool to size
        return set()
    if n_workers is not None and n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(
            min(n_workers, len(jobs)),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            per_chunk = list(pool.map(_mine_chunk, jobs))
    else:
        per_chunk = [_mine_chunk(job, observer=observer) for job in jobs]

    candidates: Set[Tuple[int, int]] = set()
    for chunk_pairs in per_chunk:
        before = len(candidates)
        candidates.update(chunk_pairs)
        stats.partition_candidates.append(len(candidates) - before)
    return candidates


def find_implication_rules_partitioned(
    matrix: BinaryMatrix,
    minconf,
    n_partitions: int = 4,
    n_workers: Optional[int] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
    scan_engine: str = "serial",
    vector_block_rows: Optional[int] = None,
) -> RuleSet:
    """Mine implication rules by partitioned candidate generation.

    Produces exactly the rules of
    :func:`repro.core.dmc_imp.find_implication_rules`.  Per-partition
    candidate counts land on ``stats.partition_candidates``; with
    ``n_workers > 1`` partitions are mined on that many spawn
    processes, and a worker death raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    ``observer`` sees a ``partition-mining`` and a
    ``verify-candidates`` phase.

    ``scan_engine="vector"`` mines each partition with the blocked
    numpy engine (:mod:`repro.core.vector`) instead of the serial scan,
    unless its int64 twins are inexact (see
    :class:`~repro.core.dmc_imp.PruningOptions`); ``vector_block_rows``
    tunes its batch size.  The rule set is identical either way.
    """
    minconf = as_fraction(minconf)
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER
    stats.columns_total = matrix.n_columns

    with stats.timer.phase("partition-mining"), observer.phase(
        "partition-mining"
    ):
        candidates = _local_candidates(
            matrix, minconf, n_partitions, "implication", n_workers,
            stats, observer,
            scan_engine=scan_engine, vector_block_rows=vector_block_rows,
        )

    from repro.baselines.bruteforce import pairwise_intersections

    with stats.timer.phase("verify-candidates"), observer.phase(
        "verify-candidates"
    ):
        ones = matrix.column_ones()
        intersections = pairwise_intersections(matrix, candidates)
        rules = RuleSet()
        for low, high in candidates:
            if canonical_before(ones[low], low, ones[high], high):
                antecedent, consequent = low, high
            else:
                antecedent, consequent = high, low
            hits = intersections[(low, high)]
            if confidence_holds(hits, int(ones[antecedent]), minconf):
                rules.add(
                    ImplicationRule(
                        antecedent=antecedent,
                        consequent=consequent,
                        hits=hits,
                        ones=int(ones[antecedent]),
                    )
                )
    stats.rules_partial = len(rules)
    return rules


def find_similarity_rules_partitioned(
    matrix: BinaryMatrix,
    minsim,
    n_partitions: int = 4,
    n_workers: Optional[int] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
    scan_engine: str = "serial",
    vector_block_rows: Optional[int] = None,
) -> RuleSet:
    """Mine similarity rules by partitioned candidate generation.

    Produces exactly the rules of
    :func:`repro.core.dmc_sim.find_similarity_rules`.  ``n_workers``,
    ``stats``, ``observer`` and ``scan_engine`` behave as in
    :func:`find_implication_rules_partitioned`.
    """
    minsim = as_fraction(minsim)
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER
    stats.columns_total = matrix.n_columns

    with stats.timer.phase("partition-mining"), observer.phase(
        "partition-mining"
    ):
        candidates = _local_candidates(
            matrix, minsim, n_partitions, "similarity", n_workers,
            stats, observer,
            scan_engine=scan_engine, vector_block_rows=vector_block_rows,
        )

    from repro.baselines.bruteforce import pairwise_intersections

    with stats.timer.phase("verify-candidates"), observer.phase(
        "verify-candidates"
    ):
        ones = matrix.column_ones()
        intersections = pairwise_intersections(matrix, candidates)
        rules = RuleSet()
        for low, high in candidates:
            intersection = intersections[(low, high)]
            union = int(ones[low]) + int(ones[high]) - intersection
            if similarity_holds(intersection, union, minsim):
                if canonical_before(ones[low], low, ones[high], high):
                    first, second = low, high
                else:
                    first, second = high, low
                rules.add(
                    SimilarityRule(
                        first=first,
                        second=second,
                        intersection=intersection,
                        union=union,
                    )
                )
    stats.rules_partial = len(rules)
    return rules
