#!/usr/bin/env python
"""Extending DMC with a custom rule semantics: Dice-coefficient pairs.

The scan engine is policy-driven: implication, similarity, and
identical-column mining are each a :class:`PairPolicy`.  This example
adds a fourth from scratch — pairs whose *Dice coefficient*
``2|A∩B| / (|A|+|B|)`` clears a threshold — by deriving the exact
sparse-side miss budget the same way Section 5 derives Jaccard's:

    dice >= p/q
      <=>  2*(ones_i - miss_i) * q >= p * (ones_i + ones_j)
      <=>  miss_i <= (2*q*ones_i - p*(ones_i + ones_j)) / (2*q)

The result is verified against a brute-force computation.

Run:  python examples/custom_policy.py
"""

from fractions import Fraction

from repro import BinaryMatrix, load_dataset
from repro.core.miss_counting import miss_counting_scan
from repro.core.policies import PairPolicy
from repro.core.rules import SimilarityRule


class DicePolicy(PairPolicy):
    """Mine pairs with Dice coefficient >= ``min_dice``, exactly."""

    rule_type = SimilarityRule

    def __init__(self, ones, min_dice: Fraction) -> None:
        super().__init__(ones)
        self.min_dice = Fraction(min_dice)

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        p, q = self.min_dice.numerator, self.min_dice.denominator
        ones_j, ones_k = self.ones[column_j], self.ones[candidate_k]
        return (2 * q * ones_j - p * (ones_j + ones_k)) // (2 * q)

    def add_cutoff(self, column_j: int) -> int:
        # Best case: a candidate with the same cardinality.
        return self.pair_budget(column_j, column_j)

    def valid_mask(self, owners, cands, misses):
        # The one emission hook: which surviving pairs are rules.  The
        # scan builds each rule from ``make_rules``: intersection
        # ``ones_j - misses`` and union ``ones_k + misses``.
        ones = self.ones_array()
        intersection = ones[owners] - misses
        total = ones[owners] + ones[cands]
        return 2 * intersection * self.min_dice.denominator >= (
            self.min_dice.numerator * total
        )


def dice_bruteforce(matrix: BinaryMatrix, min_dice: Fraction):
    """Oracle: all-pairs Dice via column sets."""
    sets = matrix.column_sets()
    ones = matrix.column_ones()
    pairs = set()
    for i in range(matrix.n_columns):
        for j in range(i + 1, matrix.n_columns):
            inter = len(sets[i] & sets[j])
            total = int(ones[i]) + int(ones[j])
            if total and Fraction(2 * inter, total) >= min_dice:
                pairs.add(tuple(sorted((i, j))))
    return pairs


def main() -> None:
    matrix = load_dataset("dicD", scale=0.6, seed=4)
    threshold = Fraction(4, 5)

    policy = DicePolicy(matrix.column_ones(), threshold)
    rules = miss_counting_scan(matrix, policy)
    mined = {tuple(sorted(rule.pair)) for rule in rules}
    print(
        f"DMC with a custom Dice policy: {len(mined)} pairs at "
        f"dice >= {threshold}"
    )

    truth = dice_bruteforce(matrix, threshold)
    assert mined == truth, "custom policy must be exact"
    print("verified against brute force: exact match")

    for rule in rules.sorted()[:8]:
        dice_value = Fraction(
            2 * rule.intersection, rule.union + rule.intersection
        )
        print(
            f"  {rule.format(matrix.vocabulary)}  "
            f"dice={float(dice_value):.3f}"
        )


if __name__ == "__main__":
    main()
