"""K-Min — bottom-k sketches estimating confidence (the paper's variant
of Min-Hash for implication rules, Figure 6(i)).

Each column keeps the ``k`` rows of its set with the smallest global
random hash values — a uniform sample of ``S_i`` without replacement.
The confidence of ``c_i => c_j`` is estimated by the fraction of
sampled rows of ``S_i`` that also contain ``c_j``; candidate pairs
clearing ``minconf - slack`` are verified exactly.  Like Min-Hash, the
verified output has no false positives but may drop true rules whose
estimate came up short — the paper plots K-Min at the ``k`` where false
negatives stayed under 10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np

from repro.core.rules import ImplicationRule, RuleSet, canonical_before
from repro.core.thresholds import as_fraction, confidence_holds
from repro.matrix.binary_matrix import BinaryMatrix


@dataclass
class KMinResult:
    """Output of :func:`kmin_implication_rules` with diagnostics."""

    rules: RuleSet
    candidates_checked: int
    k: int

    def false_negatives(self, truth: RuleSet) -> Set[Tuple[int, int]]:
        """Pairs in ``truth`` that K-Min failed to report."""
        return truth.pairs() - self.rules.pairs()

    def false_negative_rate(self, truth: RuleSet) -> float:
        """Fraction of true rules missed (0.0 when truth is empty)."""
        if len(truth) == 0:
            return 0.0
        return len(self.false_negatives(truth)) / len(truth)


def bottom_k_samples(
    matrix: BinaryMatrix, k: int, seed: int = 0
) -> Dict[int, Tuple[int, ...]]:
    """Per-column bottom-k row samples under one global random hash."""
    rng = np.random.default_rng(seed)
    hashes = rng.random(matrix.n_rows)
    held = matrix.transpose()  # row c holds S_c's sorted row ids
    samples: Dict[int, Tuple[int, ...]] = {}
    for column in np.flatnonzero(held.row_densities()).tolist():
        row_array = held.cols[held.offsets[column]:held.offsets[column + 1]]
        if len(row_array) > k:
            order = np.argsort(hashes[row_array], kind="stable")
            row_array = row_array[order[:k]]
        samples[column] = tuple(int(r) for r in row_array)
    return samples


def kmin_implication_rules(
    matrix: BinaryMatrix,
    minconf,
    k: int = 50,
    slack: float = 0.1,
    seed: int = 0,
) -> KMinResult:
    """Mine canonical implication rules via bottom-k estimation.

    For each column the sampled rows are walked and co-occurring
    columns tallied, so the estimation cost is ``O(m * k * density)``
    rather than all-pairs.
    """
    minconf = as_fraction(minconf)
    samples = bottom_k_samples(matrix, k=k, seed=seed)
    ones = matrix.column_ones()

    candidates: Set[Tuple[int, int]] = set()
    for column, sample in samples.items():
        tallies: Dict[int, int] = {}
        for row_id in sample:
            for other in matrix.row(row_id):
                if other != column:
                    tallies[other] = tallies.get(other, 0) + 1
        cut = max(0.0, float(minconf) - slack) * len(sample)
        for other, count in tallies.items():
            if count >= cut and canonical_before(
                ones[column], column, ones[other], other
            ):
                candidates.add((column, other))

    from repro.baselines.bruteforce import pairwise_intersections

    intersections = pairwise_intersections(matrix, candidates)
    rules = []
    for antecedent, consequent in candidates:
        hits = intersections[(antecedent, consequent)]
        if confidence_holds(hits, int(ones[antecedent]), minconf):
            rules.append(
                ImplicationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    hits=hits,
                    ones=int(ones[antecedent]),
                )
            )
    return KMinResult(
        rules=RuleSet(rules), candidates_checked=len(candidates), k=k
    )
