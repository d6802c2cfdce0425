"""Toivonen-style row-sampling baseline.

A third flavour of approximate comparator beyond Min-Hash and K-Min:
mine a uniform row sample at a *lowered* threshold, then verify the
sampled candidates exactly against the full data.  Like the other
randomized baselines, the verified output has no false positives; a
rule can be lost when the sample underestimates its confidence past
the lowering margin, and the tests measure that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Set, Tuple

import numpy as np

from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.rules import ImplicationRule, RuleSet, canonical_before
from repro.core.thresholds import as_fraction, confidence_holds
from repro.matrix.binary_matrix import BinaryMatrix


@dataclass
class SamplingResult:
    """Output of :func:`sampled_implication_rules` with diagnostics."""

    rules: RuleSet
    sample_rows: int
    candidates_checked: int

    def false_negatives(self, truth: RuleSet) -> Set[Tuple[int, int]]:
        """Pairs in ``truth`` that sampling failed to report."""
        return truth.pairs() - self.rules.pairs()


def sampled_implication_rules(
    matrix: BinaryMatrix,
    minconf,
    sample_fraction: float = 0.3,
    margin: float = 0.1,
    seed: int = 0,
    options: Optional[PruningOptions] = None,
) -> SamplingResult:
    """Mine a row sample at ``minconf - margin``, verify exactly.

    ``margin`` trades work for recall: a larger margin catches rules
    whose sampled confidence dips below the true value, at the cost of
    more candidates to verify.
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError("sample_fraction must be in (0, 1]")
    minconf = as_fraction(minconf)
    rng = np.random.default_rng(seed)
    n_sample = max(1, int(round(sample_fraction * matrix.n_rows)))
    chosen = rng.choice(matrix.n_rows, size=n_sample, replace=False)
    sample = matrix.select_rows([int(r) for r in chosen])

    lowered = max(
        Fraction(1, 100),
        minconf - Fraction(str(margin)),
    )
    candidates = find_implication_rules(sample, lowered, options=options)

    from repro.baselines.bruteforce import pairwise_intersections

    ones = matrix.column_ones()
    unordered = {
        (min(candidate.pair), max(candidate.pair))
        for candidate in candidates
    }
    intersections = pairwise_intersections(matrix, unordered)
    rules = []
    for low, high in unordered:
        if canonical_before(ones[low], low, ones[high], high):
            antecedent, consequent = low, high
        else:
            antecedent, consequent = high, low
        hits = intersections[(low, high)]
        if confidence_holds(hits, int(ones[antecedent]), minconf):
            rules.append(
                ImplicationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    hits=hits,
                    ones=int(ones[antecedent]),
                )
            )
    return SamplingResult(
        rules=RuleSet(rules),
        sample_rows=n_sample,
        candidates_checked=len(candidates),
    )
