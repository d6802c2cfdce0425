"""Exact threshold arithmetic (repro.core.thresholds)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policies import MAX_ONES, SimilarityPolicy
from repro.core.thresholds import (
    as_fraction,
    confidence_holds,
    confidence_removal_cutoff,
    density_prunable,
    farey_ceiling,
    max_hits_prunable,
    max_misses,
    max_possible_hits,
    min_hits,
    pair_max_misses,
    similarity_holds,
    similarity_removal_cutoff,
)


class TestAsFraction:
    def test_decimal_float_is_exact(self):
        assert as_fraction(0.85) == Fraction(17, 20)

    def test_point_one_is_one_tenth(self):
        # float 0.1 is not 1/10 in binary, but the decimal repr is used.
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_fraction_passes_through(self):
        assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)

    def test_int_one(self):
        assert as_fraction(1) == Fraction(1)

    def test_string(self):
        assert as_fraction("3/4") == Fraction(3, 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(0)

    def test_above_one_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(1.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(-0.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            as_fraction([0.5])


class TestMaxMisses:
    def test_paper_example_1_3(self):
        # 100 ones at 85% confidence allows 15 misses.
        assert max_misses(100, Fraction(17, 20)) == 15

    def test_exact_boundary(self):
        # minconf=0.9, ones=10: one miss leaves conf exactly 0.9.
        assert max_misses(10, Fraction(9, 10)) == 1

    def test_full_confidence_allows_no_misses(self):
        assert max_misses(100, Fraction(1)) == 0

    def test_zero_ones(self):
        assert max_misses(0, Fraction(1, 2)) == 0

    def test_negative_ones_rejected(self):
        with pytest.raises(ValueError):
            max_misses(-1, Fraction(1, 2))

    @given(
        ones=st.integers(min_value=0, max_value=10_000),
        p=st.integers(min_value=1, max_value=100),
        q=st.integers(min_value=1, max_value=100),
    )
    def test_budget_is_tight(self, ones, p, q):
        """maxmiss is the largest miss count that keeps conf >= minconf."""
        if p > q:
            p, q = q, p
        minconf = Fraction(p, q)
        budget = max_misses(ones, minconf)
        assert 0 <= budget <= ones
        if ones > 0:
            assert confidence_holds(ones - budget, ones, minconf)
            if budget < ones:
                assert not confidence_holds(
                    ones - budget - 1, ones, minconf
                )

    @given(
        ones=st.integers(min_value=0, max_value=10_000),
        p=st.integers(min_value=1, max_value=100),
        q=st.integers(min_value=1, max_value=100),
    )
    def test_min_hits_complements_max_misses(self, ones, p, q):
        if p > q:
            p, q = q, p
        minconf = Fraction(p, q)
        assert min_hits(ones, minconf) + max_misses(ones, minconf) == ones


class TestConfidenceHolds:
    def test_exact_equality_counts(self):
        assert confidence_holds(17, 20, Fraction(17, 20))

    def test_just_below_fails(self):
        assert not confidence_holds(16, 20, Fraction(17, 20))

    def test_zero_ones_is_invalid(self):
        assert not confidence_holds(0, 0, Fraction(1, 2))

    def test_no_float_rounding(self):
        # 3/10 >= 0.3 must hold exactly despite float 0.3 != 3/10.
        assert confidence_holds(3, 10, as_fraction(0.3))


class TestRemovalCutoffs:
    def test_confidence_cutoff_90(self):
        # ones <= 9 have zero budget at 90%; ones=10 allows one miss.
        cutoff = confidence_removal_cutoff(Fraction(9, 10))
        assert cutoff == 9
        assert max_misses(cutoff, Fraction(9, 10)) == 0
        assert max_misses(cutoff + 1, Fraction(9, 10)) == 1

    def test_confidence_cutoff_at_one_rejected(self):
        with pytest.raises(ValueError):
            confidence_removal_cutoff(Fraction(1))

    @given(
        p=st.integers(min_value=1, max_value=60),
        q=st.integers(min_value=2, max_value=60),
    )
    def test_confidence_cutoff_is_exact(self, p, q):
        if p >= q:
            return
        minconf = Fraction(p, q)
        cutoff = confidence_removal_cutoff(minconf)
        assert max_misses(cutoff, minconf) == 0
        assert max_misses(cutoff + 1, minconf) >= 1

    def test_similarity_cutoff_75(self):
        # best non-identical sim for ones=o is o/(o+1); at 75% the
        # cutoff is o=2 (2/3 < 3/4) while o=3 reaches 3/4 exactly.
        cutoff = similarity_removal_cutoff(Fraction(3, 4))
        assert cutoff == 2
        assert similarity_holds(3, 4, Fraction(3, 4))

    def test_similarity_cutoff_at_one_rejected(self):
        with pytest.raises(ValueError):
            similarity_removal_cutoff(Fraction(1))

    @given(
        p=st.integers(min_value=1, max_value=60),
        q=st.integers(min_value=2, max_value=60),
    )
    def test_similarity_cutoff_is_exact(self, p, q):
        if p >= q:
            return
        minsim = Fraction(p, q)
        cutoff = similarity_removal_cutoff(minsim)
        # At the cutoff, the best non-identical pair fails...
        assert not similarity_holds(cutoff, cutoff + 1, minsim)
        # ...and one past the cutoff, it can succeed.
        assert similarity_holds(cutoff + 1, cutoff + 2, minsim)


class TestPairMaxMisses:
    def test_paper_example_5_1(self):
        # ones 4 and 5 at 75%: no sparse-side miss allowed (the paper's
        # "one miss" counts both sides; the dense side's slack is
        # already in ones_j).
        assert pair_max_misses(4, 5, Fraction(3, 4)) == 0

    def test_negative_budget_is_density_pruning(self):
        assert pair_max_misses(2, 10, Fraction(3, 4)) < 0
        assert density_prunable(2, 10, Fraction(3, 4))

    def test_requires_sorted_cardinalities(self):
        with pytest.raises(ValueError):
            pair_max_misses(10, 2, Fraction(3, 4))

    @given(
        ones_i=st.integers(min_value=0, max_value=300),
        extra=st.integers(min_value=0, max_value=300),
        p=st.integers(min_value=1, max_value=40),
        q=st.integers(min_value=1, max_value=40),
    )
    def test_budget_matches_exact_similarity(self, ones_i, extra, p, q):
        """miss_i <= budget  <=>  Sim >= minsim (union = ones_j + miss_i)."""
        if p > q:
            p, q = q, p
        minsim = Fraction(p, q)
        ones_j = ones_i + extra
        budget = pair_max_misses(ones_i, ones_j, minsim)
        for misses in range(0, ones_i + 1):
            inter = ones_i - misses
            union = ones_j + misses
            if union == 0:
                continue
            assert (misses <= budget) == similarity_holds(
                inter, union, minsim
            )

    @given(
        ones_i=st.integers(min_value=1, max_value=300),
        extra=st.integers(min_value=0, max_value=300),
        p=st.integers(min_value=1, max_value=40),
        q=st.integers(min_value=2, max_value=40),
    )
    def test_density_pruning_equals_negative_budget(
        self, ones_i, extra, p, q
    ):
        if p >= q:
            return
        minsim = Fraction(p, q)
        ones_j = ones_i + extra
        assert density_prunable(ones_i, ones_j, minsim) == (
            pair_max_misses(ones_i, ones_j, minsim) < 0
        )


class TestMaxHitsPruning:
    def test_paper_example_5_1_trace(self):
        # Before reading r4: cnt(c1)=1, cnt(c2)=3, miss=0, ones 4/5 at
        # 75%.  Consuming r4 as a hit: counts become 2 and 4; the best
        # final miss count is 0 + max(0, 2-1) = 1 > budget 0 => prune.
        assert max_hits_prunable(
            4, 5, count_i=2, misses_i=0, count_j=4, minsim=Fraction(3, 4)
        )

    def test_max_possible_hits(self):
        assert max_possible_hits(3, 5, 2) == 5
        assert max_possible_hits(0, 0, 10) == 0

    def test_no_prune_when_future_can_recover(self):
        assert not max_hits_prunable(
            10, 10, count_i=2, misses_i=0, count_j=2, minsim=Fraction(1, 2)
        )

    @given(
        ones_i=st.integers(min_value=1, max_value=60),
        extra=st.integers(min_value=0, max_value=60),
        count_i=st.integers(min_value=0, max_value=60),
        count_j=st.integers(min_value=0, max_value=120),
        misses=st.integers(min_value=0, max_value=60),
        p=st.integers(min_value=1, max_value=20),
        q=st.integers(min_value=2, max_value=20),
    )
    def test_prune_is_sound(
        self, ones_i, extra, count_i, count_j, misses, p, q
    ):
        """If the prune fires, no achievable future reaches minsim."""
        if p >= q:
            return
        minsim = Fraction(p, q)
        ones_j = ones_i + extra
        count_i = min(count_i, ones_i)
        count_j = min(count_j, ones_j)
        misses = min(misses, count_i)
        if not max_hits_prunable(
            ones_i, ones_j, count_i, misses, count_j, minsim
        ):
            return
        # Best achievable: every remaining 1 of c_i that can pair with a
        # remaining 1 of c_j does.
        remaining_i = ones_i - count_i
        remaining_j = ones_j - count_j
        best_final_misses = misses + max(0, remaining_i - remaining_j)
        inter = ones_i - best_final_misses
        union = ones_j + best_final_misses
        assert not similarity_holds(inter, union, minsim)


class TestFareyCeiling:
    def test_in_sequence_passes_through(self):
        assert farey_ceiling(Fraction(3, 5), 5) == Fraction(3, 5)

    def test_rounds_up_to_the_next_neighbour(self):
        assert farey_ceiling(Fraction(3, 5) + Fraction(1, 10**20), 7) == (
            Fraction(2, 3)
        )
        assert farey_ceiling(Fraction(10**20 + 1, 10**20 + 3), 21) == 1

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            farey_ceiling(Fraction(1, 2), 0)

    @given(
        q=st.integers(min_value=1, max_value=10**30),
        p=st.integers(min_value=1, max_value=10**30),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_same_decisions_and_nothing_skipped(self, q, p, n):
        theta = Fraction(min(p, q), q)
        ceiling = farey_ceiling(theta, n)
        assert theta <= ceiling <= 1 and ceiling.denominator <= n
        top, bottom = ceiling.numerator, ceiling.denominator
        for y in range(1, n + 1):
            # The smallest x/y at or above theta is not below the ceiling.
            smallest = -(-theta.numerator * y // theta.denominator)
            assert Fraction(smallest, y) >= ceiling
            for x in range(2 * n + 2):
                assert (x * bottom >= top * y) == (
                    x * theta.denominator >= theta.numerator * y
                ), (x, y)


class TestSimilarityPolicyBound:
    def test_more_ones_than_the_bound_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            SimilarityPolicy([1, MAX_ONES + 1], Fraction(1, 2))

    def test_twins_stay_exact_at_the_bound(self):
        """With the largest accepted count and a threshold that snaps to
        terms near 2**31, the int64 twins equal the exact scalars."""
        ones = [MAX_ONES, MAX_ONES - 1, MAX_ONES // 2 + 1, MAX_ONES // 2]
        minsim = Fraction(10**30 + 1, 2 * 10**30)
        policy = SimilarityPolicy(ones, minsim)
        assert policy._q > 2**30
        pairs = [(1, 0), (2, 1), (3, 2), (3, 0), (2, 0)]
        owners, cands = np.array(pairs, dtype=np.int64).T
        misses = np.arange(len(pairs), dtype=np.int64)
        assert policy.budget_array(owners, cands).tolist() == [
            policy.pair_budget(j, k) for j, k in pairs
        ]
        # Eligibility's array form: after the owner in canonical order,
        # with ``ones`` at most the owner's ceiling at a zero count.
        ceiling = policy.cand_ceiling(owners, np.zeros_like(owners))
        ones_array = policy.ones_array()
        after = (ones_array[cands] > ones_array[owners]) | (
            (ones_array[cands] == ones_array[owners]) & (cands > owners)
        )
        assert (after & (ones_array[cands] <= ceiling)).tolist() == [
            policy.eligible(j, k) for j, k in pairs
        ]
        assert policy.valid_mask(owners, cands, misses).tolist() == [
            similarity_holds(ones[j] - m, ones[k] + m, minsim)
            for (j, k), m in zip(pairs, misses.tolist())
        ]
