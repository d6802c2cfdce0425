"""Exact all-pairs oracle via a sparse co-occurrence product.

This is the ground truth for every test in the repository: it computes
the full pairwise intersection matrix ``AᵀA`` with scipy's sparse
product and applies the exact rational validity tests from
:mod:`repro.core.thresholds`.  It needs memory proportional to the
number of co-occurring pairs, which is fine at test scale and exactly
the cost DMC is designed to avoid at paper scale.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.rules import (
    ImplicationRule,
    RuleSet,
    SimilarityRule,
    canonical_before,
)
from repro.core.thresholds import (
    as_fraction,
    confidence_holds,
    similarity_holds,
)
from repro.matrix.binary_matrix import BinaryMatrix


def cooccurrence_counts(
    matrix: BinaryMatrix,
) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(i, j, |S_i ∩ S_j|)`` for every co-occurring pair ``i < j``.

    Pairs that never co-occur are not yielded; with any positive
    threshold they cannot form a rule.
    """
    csr = matrix.to_csr()
    product = (csr.T @ csr).tocoo()
    for i, j, inter in zip(product.row, product.col, product.data):
        if i < j:
            yield int(i), int(j), int(inter)


def implication_rules_bruteforce(matrix: BinaryMatrix, minconf) -> RuleSet:
    """All canonical implication rules with confidence ``>= minconf``."""
    minconf = as_fraction(minconf)
    ones = matrix.column_ones()
    rules = []
    for i, j, inter in cooccurrence_counts(matrix):
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
    return RuleSet(rules)


def similarity_rules_bruteforce(matrix: BinaryMatrix, minsim) -> RuleSet:
    """All column pairs with similarity ``>= minsim``."""
    minsim = as_fraction(minsim)
    ones = matrix.column_ones()
    rules = []
    for i, j, inter in cooccurrence_counts(matrix):
        union = int(ones[i]) + int(ones[j]) - inter
        if similarity_holds(inter, union, minsim):
            if canonical_before(ones[i], i, ones[j], j):
                first, second = i, j
            else:
                first, second = j, i
            rules.append(
                SimilarityRule(
                    first=first,
                    second=second,
                    intersection=inter,
                    union=union,
                )
            )
    return RuleSet(rules)


def pairwise_intersections(
    matrix: BinaryMatrix, pairs
) -> "dict[Tuple[int, int], int]":
    """Exact ``|S_i ∩ S_j|`` for a batch of column pairs, via numpy.

    Per-pair Python-set intersections dominate the verification cost
    of the candidate-generating algorithms (partitioned, sampling,
    Min-Hash, K-Min); this routine intersects sorted row-id arrays in
    C instead: row ``c`` of the transpose holds ``S_c``'s sorted row ids.
    """
    import numpy as np

    held = matrix.transpose()
    offsets, rows = held.offsets, held.cols
    return {
        (i, j): int(np.intersect1d(
            rows[offsets[i]:offsets[i + 1]], rows[offsets[j]:offsets[j + 1]],
            assume_unique=True,
        ).size)
        for i, j in pairs
    }


def confidence_of(matrix: BinaryMatrix, antecedent: int, consequent: int):
    """Exact confidence of one directed pair (``None`` if undefined)."""
    from fractions import Fraction

    sets = matrix.column_sets()
    ones = len(sets[antecedent])
    if ones == 0:
        return None
    return Fraction(len(sets[antecedent] & sets[consequent]), ones)


def similarity_of(matrix: BinaryMatrix, first: int, second: int):
    """Exact Jaccard similarity of one pair (``None`` if both empty)."""
    from fractions import Fraction

    sets = matrix.column_sets()
    union = len(sets[first] | sets[second])
    if union == 0:
        return None
    return Fraction(len(sets[first] & sets[second]), union)
