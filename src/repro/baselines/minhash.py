"""Min-Hash similarity mining (Cohen; Cohen et al., ICDE 2000).

The paper's randomized comparator (Section 3.2): give every row a
random hash value per repetition; a column's min-hash is the smallest
value over its rows, and ``Prob[h(c_i) == h(c_j)] == Sim(c_i, c_j)``.
With ``k`` repetitions generated in a single data scan, candidate pairs
are found either by estimated similarity or by LSH banding, then
*verified exactly* — so the output has no false positives, but (unlike
DMC) pairs whose estimate falls below the cut are lost: false
negatives, which Figure 6(j)'s caption prices at the k needed to keep
them rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.rules import RuleSet, SimilarityRule, canonical_before
from repro.core.thresholds import as_fraction, similarity_holds
from repro.matrix.binary_matrix import BinaryMatrix


@dataclass
class MinHashResult:
    """Output of :func:`minhash_similarity_rules` with diagnostics."""

    rules: RuleSet
    candidates_checked: int
    k: int

    def false_negatives(self, truth: RuleSet) -> Set[Tuple[int, int]]:
        """Pairs in ``truth`` that Min-Hash failed to report."""
        return truth.pairs() - self.rules.pairs()


def minhash_signatures(
    matrix: BinaryMatrix, k: int, seed: int = 0
) -> np.ndarray:
    """Return the ``(k, m)`` min-hash signature array in one data scan.

    Empty columns get ``+inf`` in every component.
    """
    rng = np.random.default_rng(seed)
    hashes = rng.random((k, matrix.n_rows))
    signatures = np.full((k, matrix.n_columns), np.inf)
    offsets = matrix.offsets
    for row_id in np.flatnonzero(matrix.row_densities()):
        columns = matrix.cols[offsets[row_id]:offsets[row_id + 1]]
        row_hashes = hashes[:, row_id : row_id + 1]
        signatures[:, columns] = np.minimum(
            signatures[:, columns], row_hashes
        )
    return signatures


def _banded_candidates(
    signatures: np.ndarray, bands: int
) -> Set[Tuple[int, int]]:
    """LSH banding: columns sharing any full band signature."""
    k, m = signatures.shape
    if bands < 1 or bands > k:
        raise ValueError("bands must be in [1, k]")
    rows_per_band = k // bands
    candidates: Set[Tuple[int, int]] = set()
    for band in range(bands):
        start = band * rows_per_band
        stop = start + rows_per_band
        buckets: Dict[Tuple[float, ...], List[int]] = {}
        for column in range(m):
            key = tuple(signatures[start:stop, column])
            if np.inf in key:
                continue  # empty column
            buckets.setdefault(key, []).append(column)
        for members in buckets.values():
            for i, j in combinations(members, 2):
                candidates.add((i, j))
    return candidates


def _estimate_candidates(
    signatures: np.ndarray, minsim, slack: float
) -> Set[Tuple[int, int]]:
    """All-pairs candidates whose estimated similarity clears the cut.

    Pairs are enumerated through shared signature components (two
    columns with no equal component have estimate zero), so the cost is
    proportional to collisions rather than ``m**2``.
    """
    k, m = signatures.shape
    matches: Dict[Tuple[int, int], int] = {}
    for t in range(k):
        buckets: Dict[float, List[int]] = {}
        for column in range(m):
            value = signatures[t, column]
            if np.isinf(value):
                continue
            buckets.setdefault(value, []).append(column)
        for members in buckets.values():
            for i, j in combinations(members, 2):
                pair = (i, j)
                matches[pair] = matches.get(pair, 0) + 1
    cut = max(0.0, (float(minsim) - slack)) * k
    return {pair for pair, count in matches.items() if count >= cut}


def minhash_similarity_rules(
    matrix: BinaryMatrix,
    minsim,
    k: int = 100,
    bands: Optional[int] = None,
    slack: float = 0.1,
    seed: int = 0,
) -> MinHashResult:
    """Mine similarity pairs with Min-Hash + exact verification.

    With ``bands`` set, candidates come from LSH banding; otherwise from
    the estimated similarity with ``slack`` subtracted from the
    threshold (lower slack = faster but more false negatives).
    """
    minsim = as_fraction(minsim)
    signatures = minhash_signatures(matrix, k=k, seed=seed)
    if bands is not None:
        candidates = _banded_candidates(signatures, bands)
    else:
        candidates = _estimate_candidates(signatures, minsim, slack)

    from repro.baselines.bruteforce import pairwise_intersections

    ones = matrix.column_ones()
    intersections = pairwise_intersections(matrix, candidates)
    rules = []
    for i, j in candidates:
        inter = intersections[(i, j)]
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
    return MinHashResult(
        rules=RuleSet(rules), candidates_checked=len(candidates), k=k
    )
