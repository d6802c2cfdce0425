"""A-priori (Agrawal & Srikant) — the support-pruning baseline.

Two entry points:

- :func:`apriori_pair_rules` — the two-pass pair miner the paper
  benchmarks against DMC in Figure 6(i)/(j): pass 1 counts singletons
  and prunes by support, pass 2 keeps a counter for every pair of
  frequent columns.  Its memory is the ``f(f-1)/2`` counter array the
  paper's Section 3.1 criticizes (1.7 billion counters on the
  web-link data).
- :func:`apriori_frequent_itemsets` — the general level-wise miner
  (candidates joined from frequent ``(k-1)``-itemsets, subset-pruned,
  counted in one scan per level), which the paper's Section 7 contrasts
  with DMC's pairs-only scope.

Unlike DMC, a-priori misses every rule whose antecedent falls below the
support threshold — by design, not by bug; the comparison experiments
restrict both algorithms to the frequent columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.rules import ImplicationRule, RuleSet, canonical_before
from repro.core.thresholds import as_fraction, confidence_holds
from repro.matrix.binary_matrix import BinaryMatrix


@dataclass
class AprioriResult:
    """Output of :func:`apriori_pair_rules` with its cost diagnostics."""

    rules: RuleSet
    frequent_columns: List[int]
    counters_used: int


def apriori_pair_rules(
    matrix: BinaryMatrix,
    minconf,
    minsup_count: int = 1,
    maxsup_count: Optional[int] = None,
    require_pair_support: bool = False,
) -> AprioriResult:
    """Mine canonical pair rules among support-frequent columns.

    ``minsup_count`` / ``maxsup_count`` are absolute row counts (the
    paper's NewsP uses 35 and 3278).  Confidence is then filtered at
    ``minconf`` exactly as for DMC, so on the frequent columns the
    output matches DMC restricted to those columns.  With
    ``require_pair_support`` the classic support-confidence framework
    is applied instead (the pair itself must be frequent) — the
    semantics DHP's bucket filter assumes.
    """
    minconf = as_fraction(minconf)
    ones = matrix.column_ones()
    frequent = [
        c
        for c in range(matrix.n_columns)
        if ones[c] >= minsup_count
        and (maxsup_count is None or ones[c] <= maxsup_count)
    ]
    frequent_set = set(frequent)

    pair_counts: Dict[Tuple[int, int], int] = {}
    for _, row in matrix.iter_rows():
        present = [c for c in row if c in frequent_set]
        for i, j in combinations(present, 2):
            pair = (i, j)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1

    rules = []
    for (i, j), inter in pair_counts.items():
        if require_pair_support and inter < minsup_count:
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
    # The paper's memory criticism counts the full triangular array a
    # static implementation must allocate, not just touched pairs.
    counters = len(frequent) * (len(frequent) - 1) // 2
    return AprioriResult(
        rules=RuleSet(rules),
        frequent_columns=frequent,
        counters_used=counters,
    )


def apriori_pair_similarity(
    matrix: BinaryMatrix,
    minsim,
    minsup_count: int = 1,
    maxsup_count: Optional[int] = None,
) -> "AprioriSimilarityResult":
    """Counter-array similarity mining (the Figure 6(j) a-priori line).

    Identical pair-counting pass to :func:`apriori_pair_rules`, but the
    filter is Jaccard similarity.  Exact on the frequent columns.
    """
    from repro.core.rules import SimilarityRule
    from repro.core.thresholds import similarity_holds

    minsim = as_fraction(minsim)
    ones = matrix.column_ones()
    frequent_set = {
        c
        for c in range(matrix.n_columns)
        if ones[c] >= minsup_count
        and (maxsup_count is None or ones[c] <= maxsup_count)
    }

    pair_counts: Dict[Tuple[int, int], int] = {}
    for _, row in matrix.iter_rows():
        present = [c for c in row if c in frequent_set]
        for i, j in combinations(present, 2):
            pair = (i, j)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1

    rules = []
    for (i, j), inter in pair_counts.items():
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
    counters = len(frequent_set) * (len(frequent_set) - 1) // 2
    return AprioriSimilarityResult(
        rules=RuleSet(rules), counters_used=counters
    )


@dataclass
class AprioriSimilarityResult:
    """Output of :func:`apriori_pair_similarity`."""

    rules: RuleSet
    counters_used: int


def apriori_frequent_itemsets(
    matrix: BinaryMatrix,
    minsup_count: int,
    max_size: Optional[int] = None,
) -> Dict[FrozenSet[int], int]:
    """Level-wise frequent-itemset mining; returns itemset -> support.

    Candidate ``k``-itemsets are joined from frequent ``(k-1)``-itemsets
    sharing a ``(k-2)``-prefix and pruned unless every ``(k-1)``-subset
    is frequent, then counted in one scan.
    """
    if minsup_count < 1:
        raise ValueError("minsup_count must be at least 1")
    ones = matrix.column_ones()
    supports: Dict[FrozenSet[int], int] = {
        frozenset([c]): int(ones[c])
        for c in range(matrix.n_columns)
        if ones[c] >= minsup_count
    }
    current = sorted(
        tuple(itemset) for itemset in supports
    )  # sorted singleton tuples
    size = 1
    while current and (max_size is None or size < max_size):
        size += 1
        frequent_prev = {frozenset(itemset) for itemset in current}
        candidates = _join_candidates(current, frequent_prev)
        if not candidates:
            break
        counts = {candidate: 0 for candidate in candidates}
        candidate_sets = {
            candidate: frozenset(candidate) for candidate in candidates
        }
        for _, row in matrix.iter_rows():
            if len(row) < size:
                continue
            row_set = set(row)
            for candidate in candidates:
                if candidate_sets[candidate] <= row_set:
                    counts[candidate] += 1
        current = []
        for candidate, support in counts.items():
            if support >= minsup_count:
                supports[candidate_sets[candidate]] = support
                current.append(candidate)
        current.sort()
    return supports


def _join_candidates(
    current: List[Tuple[int, ...]],
    frequent_prev: set,
) -> List[Tuple[int, ...]]:
    """A-priori-gen: prefix join plus all-subsets pruning."""
    candidates = []
    for a_index, a in enumerate(current):
        for b in current[a_index + 1 :]:
            if a[:-1] != b[:-1]:
                break  # sorted order: no further shared prefix
            joined = a + (b[-1],)
            if all(
                frozenset(joined[:i] + joined[i + 1 :]) in frequent_prev
                for i in range(len(joined))
            ):
                candidates.append(joined)
    return candidates


def association_rules_from_itemsets(
    supports: Dict[FrozenSet[int], int], minconf
) -> List[Tuple[FrozenSet[int], FrozenSet[int], int, int]]:
    """Generate ``X => Y`` rules from frequent itemsets.

    Returns ``(antecedent, consequent, support_xy, support_x)`` tuples
    for every split of every itemset of size >= 2 whose confidence
    reaches ``minconf``.  This is the >2-column capability the paper's
    Section 7 notes DMC itself lacks.
    """
    minconf = as_fraction(minconf)
    rules = []
    for itemset, support_xy in supports.items():
        if len(itemset) < 2:
            continue
        items = sorted(itemset)
        for r in range(1, len(items)):
            for antecedent in combinations(items, r):
                antecedent_set = frozenset(antecedent)
                support_x = supports.get(antecedent_set)
                if support_x is None:
                    continue
                if confidence_holds(support_xy, support_x, minconf):
                    rules.append(
                        (
                            antecedent_set,
                            itemset - antecedent_set,
                            support_xy,
                            support_x,
                        )
                    )
    return rules
