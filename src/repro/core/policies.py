"""Pair policies: what "candidate", "budget" and "valid" mean per rule kind.

The DMC-base scan (Algorithm 3.1) and the DMC-bitmap tail (Algorithm
4.1) are the same machine for implication rules, 100%-confidence rules,
similarity rules, and identical-column detection — what differs is which
pairs are eligible, how many misses each pair may accumulate, when new
candidates may still be added, and the final validity test.  A
:class:`PairPolicy` bundles those four decisions, so each algorithm
variant in the paper is one policy class here.

All budgets are on *sparse-side* misses: rows where the list-owning
column ``c_j`` is 1 but the candidate ``c_k`` is 0.  See
:mod:`repro.core.thresholds` for the derivations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.rules import (
    ImplicationRule,
    SimilarityRule,
    canonical_before,
)
from repro.core.thresholds import (
    Threshold,
    as_fraction,
    max_misses,
    similarity_holds,
)


class PairPolicy:
    """Base class; subclasses configure one mining variant.

    Parameters
    ----------
    ones:
        ``ones(c_i)`` for every column (from the pre-scan).
    """

    #: The rule class this variant mines (set by each subclass).
    rule_type: type

    def __init__(self, ones: Sequence[int]) -> None:
        self.ones = list(int(o) for o in ones)

    def eligible(self, column_j: int, candidate_k: int) -> bool:
        """May ``candidate_k`` appear on ``column_j``'s list?

        The base rule is the paper's canonical order: the list owner must
        canonically precede the candidate.
        """
        return canonical_before(
            self.ones[column_j],
            column_j,
            self.ones[candidate_k],
            candidate_k,
        )

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        """Maximum sparse-side misses the pair may accumulate.

        Negative means the pair can never be valid (static pruning).
        """
        raise NotImplementedError

    def add_cutoff(self, column_j: int) -> int:
        """Largest ``cnt(c_j)`` at which new candidates may still be added.

        A column first co-occurring with ``c_j`` after this point has
        already missed too often for *every* possible budget.
        """
        raise NotImplementedError

    def dynamic_prune(
        self,
        column_j: int,
        candidate_k: int,
        count_j: int,
        misses: int,
        count_k: int,
    ) -> bool:
        """Optional in-scan pruning beyond the budget (default: none)."""
        return False

    def make_rule(self, column_j: int, candidate_k: int, misses: int):
        """Return the final rule for a surviving pair, or None if invalid."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Array twins, consumed by the vector engine (repro.core.vector).
    # Each must agree pair-for-pair with its scalar counterpart above;
    # the parity tests sweep both forms against each other.
    # ------------------------------------------------------------------

    def ones_array(self) -> np.ndarray:
        """``ones`` as an int64 vector (cached)."""
        cached = getattr(self, "_ones_array", None)
        if cached is None:
            cached = np.asarray(self.ones, dtype=np.int64)
            self._ones_array = cached
        return cached

    def eligible_mask(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        """Array twin of :meth:`eligible` (canonical order by default)."""
        ones = self.ones_array()
        ones_j = ones[owners]
        ones_k = ones[cands]
        return (ones_j < ones_k) | ((ones_j == ones_k) & (owners < cands))

    def budget_array(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        """Array twin of :meth:`pair_budget`."""
        raise NotImplementedError

    def add_cutoff_array(self) -> np.ndarray:
        """:meth:`add_cutoff` evaluated for every column at once."""
        raise NotImplementedError

    def dynamic_prune_mask(
        self,
        owners: np.ndarray,
        cands: np.ndarray,
        misses: np.ndarray,
        counts: np.ndarray,
        budgets: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Array twin of :meth:`dynamic_prune`, or None when the policy
        has no dynamic prune (lets the engine skip the sweep term).

        ``counts`` is the full per-column count vector at the sweep
        point; ``budgets`` the pair budgets cached at admission.
        """
        return None

    def valid_mask(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        """Array twin of the final :meth:`make_rule` validity test."""
        raise NotImplementedError

    def make_rules(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> list:
        """Array twin of :meth:`make_rule`: the valid pairs' rules, in
        order.  Validity comes from :meth:`valid_mask`, or from the exact
        per-rule path when the int64 twins are not (:meth:`vector_ready`).
        """
        if not self.vector_ready():
            built = map(
                self.make_rule, owners.tolist(), cands.tolist(),
                misses.tolist(),
            )
            return [rule for rule in built if rule is not None]
        keep = self.valid_mask(owners, cands, misses)
        owners, cands, misses = owners[keep], cands[keep], misses[keep]
        ids = self._shared_ints[0]
        return list(map(
            self.rule_type, ids[owners].tolist(), ids[cands].tolist(),
            (self.ones_array()[owners] - misses).tolist(),
            self._rule_totals(owners, cands, misses).tolist(),
        ))

    @cached_property
    def _shared_ints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Column ids and ``ones`` as object arrays of Python ints:
        bulk-built rules then share these int objects, as
        :meth:`make_rule`'s do, instead of holding one copy each."""
        return (
            np.array(range(len(self.ones)), dtype=object),
            np.array(self.ones, dtype=object),
        )

    def _rule_totals(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        """Each valid pair's rule denominator: ``ones(c_j)`` (a
        similarity's union overrides this)."""
        return self._shared_ints[1][owners]

    def vector_ready(self) -> bool:
        """Whether the int64 array twins are exact for this instance."""
        return True


class ImplicationPolicy(PairPolicy):
    """Confidence-threshold mining of ``c_j => c_k`` (Algorithm 3.1).

    The budget is per-antecedent: ``maxmiss(c_j) = floor((1-minconf)*ones)``,
    which is also the add cutoff (Example 1.3).
    """

    rule_type = ImplicationRule

    def __init__(self, ones: Sequence[int], minconf: Threshold) -> None:
        super().__init__(ones)
        self.minconf: Fraction = as_fraction(minconf)
        self.maxmiss = [max_misses(o, self.minconf) for o in self.ones]

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        return self.maxmiss[column_j]

    def add_cutoff(self, column_j: int) -> int:
        return self.maxmiss[column_j]

    def make_rule(
        self, column_j: int, candidate_k: int, misses: int
    ) -> Optional[ImplicationRule]:
        if misses > self.maxmiss[column_j]:
            return None
        ones_j = self.ones[column_j]
        return ImplicationRule(
            antecedent=column_j,
            consequent=candidate_k,
            hits=ones_j - misses,
            ones=ones_j,
        )

    def maxmiss_array(self) -> np.ndarray:
        """``maxmiss`` as an int64 vector (cached)."""
        cached = getattr(self, "_maxmiss_array", None)
        if cached is None:
            cached = np.asarray(self.maxmiss, dtype=np.int64)
            self._maxmiss_array = cached
        return cached

    def budget_array(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        return self.maxmiss_array()[owners]

    def add_cutoff_array(self) -> np.ndarray:
        return self.maxmiss_array()

    def valid_mask(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        return misses <= self.maxmiss_array()[owners]


class HundredPercentPolicy(ImplicationPolicy):
    """The Section 4.3 special case: zero misses allowed anywhere."""

    def __init__(self, ones: Sequence[int]) -> None:
        super().__init__(ones, Fraction(1))


class SimilarityPolicy(PairPolicy):
    """Similarity-threshold mining of unordered pairs (Algorithm 5.1).

    Budgets are per-pair (``pair_max_misses``), which subsumes the
    Section 5.1 column-density pruning (negative budget), and the
    Section 5.2 maximum-hits pruning runs as the dynamic check.  Both
    prunings can be disabled for the ablation benchmarks; disabling them
    never changes the mined rules, only the work done.
    """

    rule_type = SimilarityRule

    def __init__(
        self,
        ones: Sequence[int],
        minsim: Threshold,
        use_density_pruning: bool = True,
        use_max_hits_pruning: bool = True,
    ) -> None:
        super().__init__(ones)
        self.minsim: Fraction = as_fraction(minsim)
        self.use_density_pruning = use_density_pruning
        self.use_max_hits_pruning = use_max_hits_pruning
        self._p = self.minsim.numerator
        self._q = self.minsim.denominator

    def eligible(self, column_j: int, candidate_k: int) -> bool:
        if not super().eligible(column_j, candidate_k):
            return False
        if self.use_density_pruning:
            # ones_j <= ones_k here; prune when ones_j/ones_k < minsim.
            return (
                self.ones[column_j] * self._q
                >= self._p * self.ones[candidate_k]
            )
        return True

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        if not self.use_density_pruning:
            # Ablation mode: manage the candidate as if the denser
            # column's cardinality were unknown (best case: equal to the
            # sparse side).  Still sound — only weaker — and it models
            # what Section 5.1's pruning saves.
            return self.add_cutoff(column_j)
        # floor((q*ones_j - p*ones_k) / (p+q)); negative => unreachable.
        return (
            self._q * self.ones[column_j] - self._p * self.ones[candidate_k]
        ) // (self._p + self._q)

    def add_cutoff(self, column_j: int) -> int:
        # Best case is a candidate with ones_k == ones_j.
        ones_j = self.ones[column_j]
        return (ones_j * (self._q - self._p)) // (self._p + self._q)

    def dynamic_prune(
        self,
        column_j: int,
        candidate_k: int,
        count_j: int,
        misses: int,
        count_k: int,
    ) -> bool:
        if not self.use_max_hits_pruning:
            return False
        remaining_j = self.ones[column_j] - count_j
        remaining_k = self.ones[candidate_k] - count_k
        best_final_misses = misses + max(0, remaining_j - remaining_k)
        return best_final_misses > self.pair_budget(column_j, candidate_k)

    def make_rule(
        self, column_j: int, candidate_k: int, misses: int
    ) -> Optional[SimilarityRule]:
        intersection = self.ones[column_j] - misses
        union = self.ones[candidate_k] + misses
        if not similarity_holds(intersection, union, self.minsim):
            return None
        return SimilarityRule(
            first=column_j,
            second=candidate_k,
            intersection=intersection,
            union=union,
        )

    def eligible_mask(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        mask = super().eligible_mask(owners, cands)
        if self.use_density_pruning:
            ones = self.ones_array()
            mask &= ones[owners] * self._q >= self._p * ones[cands]
        return mask

    def budget_array(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        if not self.use_density_pruning:
            return self.add_cutoff_array()[owners]
        ones = self.ones_array()
        return (self._q * ones[owners] - self._p * ones[cands]) // (
            self._p + self._q
        )

    def add_cutoff_array(self) -> np.ndarray:
        cached = getattr(self, "_add_cutoff_array", None)
        if cached is None:
            ones = self.ones_array()
            cached = (ones * (self._q - self._p)) // (self._p + self._q)
            self._add_cutoff_array = cached
        return cached

    def dynamic_prune_mask(
        self,
        owners: np.ndarray,
        cands: np.ndarray,
        misses: np.ndarray,
        counts: np.ndarray,
        budgets: np.ndarray,
    ) -> Optional[np.ndarray]:
        if not self.use_max_hits_pruning:
            return None
        ones = self.ones_array()
        shortfall = (ones[owners] - counts[owners]) - (
            ones[cands] - counts[cands]
        )
        np.maximum(shortfall, 0, out=shortfall)
        return misses + shortfall > budgets

    def valid_mask(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        ones = self.ones_array()
        intersection = ones[owners] - misses
        union = ones[cands] + misses
        return (union > 0) & (intersection * self._q >= self._p * union)

    def _rule_totals(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        return self.ones_array()[cands] + misses

    def vector_ready(self) -> bool:
        # The array twins do the p/q cross-multiplications in int64;
        # pathological Fraction thresholds with astronomically large
        # terms must stay on the exact arbitrary-precision scalar path.
        scale = max(self._p, self._q, 1)
        magnitude = 2 * max(self.ones, default=1) + 1
        return scale <= (2**62) // max(magnitude, 1)


class IdentityPolicy(PairPolicy):
    """100%-similarity (identical columns) — DMC-sim step 2.

    Only pairs with equal cardinality are eligible and no miss at all is
    allowed.
    """

    rule_type = SimilarityRule

    def eligible(self, column_j: int, candidate_k: int) -> bool:
        return (
            self.ones[column_j] == self.ones[candidate_k]
            and column_j < candidate_k
        )

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        return 0

    def add_cutoff(self, column_j: int) -> int:
        return 0

    def make_rule(
        self, column_j: int, candidate_k: int, misses: int
    ) -> Optional[SimilarityRule]:
        if misses != 0:
            return None
        ones_j = self.ones[column_j]
        return SimilarityRule(
            first=column_j,
            second=candidate_k,
            intersection=ones_j,
            union=ones_j,
        )

    def eligible_mask(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        ones = self.ones_array()
        return (ones[owners] == ones[cands]) & (owners < cands)

    def budget_array(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        return np.zeros(len(owners), dtype=np.int64)

    def add_cutoff_array(self) -> np.ndarray:
        return np.zeros(len(self.ones), dtype=np.int64)

    def valid_mask(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        return misses == 0
