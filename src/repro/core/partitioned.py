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
instead (``BitmapConfig.hard_budget_bytes``), which this carrier does
not take.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Set, Tuple

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
from repro.core.vector import vector_scan
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.observe.progress import NULL_OBSERVER


class _AllPairsImplicationPolicy(ImplicationPolicy):
    """Implication policy without the canonical-direction restriction.

    Local partitions must mine both directions of every pair because the
    globally canonical direction may be locally non-canonical, so each
    owner's discovery window starts at its row's first column.
    """

    after_owner = False


def _partition_rows(matrix: BinaryMatrix, n_partitions: int) -> List[List[int]]:
    """Round-robin row ids into ``n_partitions`` non-empty-safe chunks."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be at least 1")
    return [
        list(range(first, matrix.n_rows, n_partitions))
        for first in range(min(n_partitions, matrix.n_rows))
    ]


def _mine_chunk(args, observer=None) -> List[Tuple[int, int]]:
    """Worker: vector-scan one partition; return its unordered pairs.

    Module-level (not a closure) so it is picklable for the process
    pool.  The payload is ``(local, threshold, kind)``, ``local`` being
    the partition's rows as a :class:`BinaryMatrix`.
    ``observer`` is the parent's when partitions run in-process (pool
    workers run unobserved); the chunk's scan folds onto its metrics
    under ``scan="partition"``.
    """
    local, threshold, kind = args
    if kind == "implication":
        policy = _AllPairsImplicationPolicy(
            local.column_ones(), threshold
        )
    else:
        policy = SimilarityPolicy(local.column_ones(), threshold)
    scan_stats = ScanStats()
    span = (
        observer.span(
            "partition-scan", rows=local.n_rows, columns=local.n_columns,
            kind=kind,
        )
        if hasattr(observer, "span")
        else nullcontext()
    )
    with span:
        local_rules = vector_scan(
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
) -> Set[Tuple[int, int]]:
    """Mine every partition (in-process or on the spawn pool) and union
    the locally-valid pairs."""
    stats.scan_engine = "vector"
    jobs = [
        (matrix.select_rows(chunk), threshold, kind)
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
) -> RuleSet:
    """Mine implication rules by partitioned candidate generation.

    Produces exactly the rules of
    :func:`repro.core.dmc_imp.find_implication_rules`.  Per-partition
    candidate counts land on ``stats.partition_candidates``; with
    ``n_workers > 1`` partitions are mined on that many spawn
    processes, and a worker death raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    ``observer`` sees a ``partition-mining`` and a
    ``verify-candidates`` phase.  Each partition is mined with the
    blocked numpy scan (:mod:`repro.core.vector`).
    """
    minconf = as_fraction(minconf)
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER
    stats.columns_total = matrix.n_columns

    with observer.phase("partition-mining", stats.timer):
        candidates = _local_candidates(
            matrix, minconf, n_partitions, "implication", n_workers,
            stats, observer,
        )

    from repro.baselines.bruteforce import pairwise_intersections

    with observer.phase("verify-candidates", stats.timer):
        ones = matrix.column_ones()
        intersections = pairwise_intersections(matrix, candidates)
        found = []
        for low, high in candidates:
            if canonical_before(ones[low], low, ones[high], high):
                antecedent, consequent = low, high
            else:
                antecedent, consequent = high, low
            hits = intersections[(low, high)]
            if confidence_holds(hits, int(ones[antecedent]), minconf):
                found.append(
                    ImplicationRule(
                        antecedent=antecedent,
                        consequent=consequent,
                        hits=hits,
                        ones=int(ones[antecedent]),
                    )
                )
        rules = RuleSet(found)
    stats.rules_partial = len(rules)
    return rules


def find_similarity_rules_partitioned(
    matrix: BinaryMatrix,
    minsim,
    n_partitions: int = 4,
    n_workers: Optional[int] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
) -> RuleSet:
    """Mine similarity rules by partitioned candidate generation.

    Produces exactly the rules of
    :func:`repro.core.dmc_sim.find_similarity_rules`.  ``n_workers``,
    ``stats`` and ``observer`` behave as in
    :func:`find_implication_rules_partitioned`.
    """
    minsim = as_fraction(minsim)
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER
    stats.columns_total = matrix.n_columns

    with observer.phase("partition-mining", stats.timer):
        candidates = _local_candidates(
            matrix, minsim, n_partitions, "similarity", n_workers,
            stats, observer,
        )

    from repro.baselines.bruteforce import pairwise_intersections

    with observer.phase("verify-candidates", stats.timer):
        ones = matrix.column_ones()
        intersections = pairwise_intersections(matrix, candidates)
        found = []
        for low, high in candidates:
            intersection = intersections[(low, high)]
            union = int(ones[low]) + int(ones[high]) - intersection
            if similarity_holds(intersection, union, minsim):
                if canonical_before(ones[low], low, ones[high], high):
                    first, second = low, high
                else:
                    first, second = high, low
                found.append(
                    SimilarityRule(
                        first=first,
                        second=second,
                        intersection=intersection,
                        union=union,
                    )
                )
        rules = RuleSet(found)
    stats.rules_partial = len(rules)
    return rules
