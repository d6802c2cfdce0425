"""Pair policies (repro.core.policies)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    PairPolicy,
    SimilarityPolicy,
)


def _rule(policy, column_j, candidate_k, misses):
    """``make_rules`` on one surviving pair: its rule, or None."""
    pair = [np.array([value], dtype=np.int64)
            for value in (column_j, candidate_k, misses)]
    columns = policy.make_rules(*pair)
    assert all(column.dtype == np.int64 for column in columns)
    if not len(columns[0]):
        return None
    return policy.rule_type(*(int(column[0]) for column in columns))


class TestBasePolicy:
    def test_eligibility_follows_canonical_order(self):
        policy = ImplicationPolicy([2, 5, 5], 0.5)
        assert policy.eligible(0, 1)       # fewer ones first
        assert not policy.eligible(1, 0)
        assert policy.eligible(1, 2)       # tie broken by id
        assert not policy.eligible(2, 1)

    def test_abstract_methods_raise(self):
        policy = PairPolicy([1, 1])
        with pytest.raises(NotImplementedError):
            policy.pair_budget(0, 1)
        with pytest.raises(NotImplementedError):
            policy.add_cutoff(0)
        with pytest.raises(NotImplementedError):
            _rule(policy, 0, 1, 0)

    def test_default_dynamic_prune_is_off(self):
        assert not PairPolicy([1, 1]).dynamic_prune(0, 1, 0, 0, 0)


class TestImplicationPolicy:
    def test_budget_is_per_antecedent(self):
        policy = ImplicationPolicy([100, 200], 0.85)
        assert policy.pair_budget(0, 1) == 15
        assert policy.add_cutoff(0) == 15

    def test_make_rule_checks_budget(self):
        policy = ImplicationPolicy([100, 200], 0.85)
        assert _rule(policy, 0, 1, 16) is None
        rule = _rule(policy, 0, 1, 15)
        assert rule.hits == 85
        assert rule.confidence == Fraction(17, 20)

    def test_threshold_normalized(self):
        policy = ImplicationPolicy([10], 0.9)
        assert policy.minconf == Fraction(9, 10)

    def test_hundred_percent_policy_budget_zero(self):
        policy = HundredPercentPolicy([5, 7])
        assert policy.pair_budget(0, 1) == 0
        assert policy.add_cutoff(1) == 0
        assert _rule(policy, 0, 1, 0).confidence == 1
        assert _rule(policy, 0, 1, 1) is None


class TestSimilarityPolicy:
    def test_pair_budget_example(self):
        # Example 5.1: ones 4 and 5 at 75% -> zero sparse-side misses.
        policy = SimilarityPolicy([4, 5], 0.75)
        assert policy.pair_budget(0, 1) == 0

    def test_density_pruning_blocks_eligibility(self):
        policy = SimilarityPolicy([2, 10], 0.75)
        assert not policy.eligible(0, 1)

    def test_density_pruning_disabled_restores_eligibility(self):
        policy = SimilarityPolicy([2, 10], 0.75, use_density_pruning=False)
        assert policy.eligible(0, 1)

    def test_weak_budget_without_density_pruning(self):
        strict = SimilarityPolicy([4, 8], 0.5)
        weak = SimilarityPolicy([4, 8], 0.5, use_density_pruning=False)
        assert weak.pair_budget(0, 1) >= strict.pair_budget(0, 1)
        assert weak.pair_budget(0, 1) == weak.add_cutoff(0)

    def test_add_cutoff_is_equal_cardinality_best_case(self):
        policy = SimilarityPolicy([9, 9], Fraction(1, 2))
        assert policy.add_cutoff(0) == policy.pair_budget(0, 1)

    def test_make_rule_is_exact(self):
        policy = SimilarityPolicy([4, 5], 0.75)
        rule = _rule(policy, 0, 1, 0)
        assert rule.similarity == Fraction(4, 5)
        assert _rule(policy, 0, 1, 1) is None

    def test_dynamic_prune_uses_max_hits(self):
        policy = SimilarityPolicy([4, 5], 0.75)
        # After consuming r4 as a hit in Example 5.1's trace.
        assert policy.dynamic_prune(0, 1, 2, 0, 4)

    def test_dynamic_prune_disabled(self):
        policy = SimilarityPolicy([4, 5], 0.75, use_max_hits_pruning=False)
        assert not policy.dynamic_prune(0, 1, 2, 0, 4)


class TestIdentityPolicy:
    def test_only_equal_cardinalities_eligible(self):
        policy = IdentityPolicy([3, 3, 4])
        assert policy.eligible(0, 1)
        assert not policy.eligible(0, 2)
        assert not policy.eligible(1, 0)  # needs j < k

    def test_budget_and_cutoff_zero(self):
        policy = IdentityPolicy([3, 3])
        assert policy.pair_budget(0, 1) == 0
        assert policy.add_cutoff(0) == 0

    def test_make_rule(self):
        policy = IdentityPolicy([3, 3])
        rule = _rule(policy, 0, 1, 0)
        assert rule.similarity == 1
        assert rule.intersection == rule.union == 3
        assert _rule(policy, 0, 1, 1) is None
