"""DHP (Park, Chen & Yu) — hash-based pair-candidate pruning.

The paper's Section 3.1 cites DHP as the classic fix for a-priori's
pair-counter blowup: during pass 1, every pair occurrence is hashed
into one of ``n_buckets`` counters; in pass 2 a pair needs a counter
only if both items are frequent *and* its bucket total reached the
support threshold.  The mined rules are identical to a-priori's — only
the number of pair counters differs — which is exactly what the tests
assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

from repro.core.rules import ImplicationRule, RuleSet, canonical_before
from repro.core.thresholds import as_fraction, confidence_holds
from repro.matrix.binary_matrix import BinaryMatrix


@dataclass
class DhpResult:
    """Output of :func:`dhp_pair_rules` with its cost diagnostics."""

    rules: RuleSet
    counters_used: int
    buckets_passed: int
    n_buckets: int


def _pair_bucket(i: int, j: int, n_buckets: int) -> int:
    """The hash function of the original DHP paper: ``(i*10 + j) mod H``."""
    return (i * 10 + j) % n_buckets


def dhp_pair_rules(
    matrix: BinaryMatrix,
    minconf,
    minsup_count: int = 1,
    maxsup_count: Optional[int] = None,
    n_buckets: int = 1024,
) -> DhpResult:
    """Mine the same rules as a-priori using hash-pruned pair counters."""
    minconf = as_fraction(minconf)
    ones = matrix.column_ones()

    # Pass 1: hash every pair occurrence into a bucket.
    buckets = [0] * n_buckets
    for _, row in matrix.iter_rows():
        for i, j in combinations(row, 2):
            buckets[_pair_bucket(i, j, n_buckets)] += 1
    passed = {
        b for b, count in enumerate(buckets) if count >= minsup_count
    }

    frequent = {
        c
        for c in range(matrix.n_columns)
        if ones[c] >= minsup_count
        and (maxsup_count is None or ones[c] <= maxsup_count)
    }

    # Pass 2: count only pairs that survive both filters.
    pair_counts: Dict[Tuple[int, int], int] = {}
    for _, row in matrix.iter_rows():
        present = [c for c in row if c in frequent]
        for i, j in combinations(present, 2):
            if _pair_bucket(i, j, n_buckets) not in passed:
                continue
            pair = (i, j)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1

    rules = []
    for (i, j), inter in pair_counts.items():
        if inter < minsup_count:
            # The bucket filter is only sound against pairs that could
            # have been support-frequent, so DHP mines in the classic
            # support-confidence framework: the pair itself must reach
            # the support threshold.
            continue
        if canonical_before(ones[i], i, ones[j], j):
            antecedent, consequent = i, j
        else:
            antecedent, consequent = j, i
        if confidence_holds(inter, int(ones[antecedent]), minconf):
            rules.append(
                ImplicationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    hits=inter,
                    ones=int(ones[antecedent]),
                )
            )
    return DhpResult(
        rules=RuleSet(rules),
        counters_used=len(pair_counts),
        buckets_passed=len(passed),
        n_buckets=n_buckets,
    )
