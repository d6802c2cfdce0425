"""Pair policies: what "candidate", "budget" and "valid" mean per rule kind.

The DMC-base scan (Algorithm 3.1) and the DMC-bitmap tail (Algorithm
4.1) are the same machine for implication rules, 100%-confidence rules,
similarity rules, and identical-column detection — what differs is which
pairs are eligible, how many misses each pair may accumulate, when new
candidates may still be added, and the final validity test.  A
:class:`PairPolicy` bundles those four decisions, so each algorithm
variant in the paper is one policy class here.

The scalar methods (:meth:`~PairPolicy.eligible`,
:meth:`~PairPolicy.pair_budget`, :meth:`~PairPolicy.add_cutoff`,
:meth:`~PairPolicy.dynamic_prune`) serve only the serial loop's in-scan
decisions; the vector engine and the DMC-bitmap tail use their array
twins, with eligibility and the budget test at admission folded into
one ceiling on a candidate's ``ones`` (:meth:`PairPolicy.cand_ceiling`)
that discovery reads as a canonical-rank window.  Emission has one
form for every scan: the finished pairs go to
:meth:`PairPolicy.make_rules` (through
:func:`repro.core.bitmap.emit_rules`), and a policy's only emission
hook is :meth:`PairPolicy.valid_mask`.

All budgets are on *sparse-side* misses: rows where the list-owning
column ``c_j`` is 1 but the candidate ``c_k`` is 0.  See
:mod:`repro.core.thresholds` for the derivations.
"""

from __future__ import annotations

from fractions import Fraction
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
    farey_ceiling,
    max_misses,
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

    #: Candidates follow their owner in canonical order (Section 2).  A
    #: policy pairing in both directions sets this False: discovery's
    #: window then starts at the row's first column.
    after_owner = True

    def __init__(self, ones: Sequence[int]) -> None:
        self._ones_array = np.array(ones, dtype=np.int64)
        self.ones = self._ones_array.tolist()

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

    # ------------------------------------------------------------------
    # Array twins, consumed by the vector engine (repro.core.vector)
    # and the bitmap tail.  Each must agree pair-for-pair with its
    # scalar counterpart above; the parity tests sweep both forms
    # against each other.  Emission (valid_mask, make_rules) is array
    # only: every scan emits through it.
    # ------------------------------------------------------------------

    def ones_array(self) -> np.ndarray:
        """``ones`` as an int64 vector."""
        return self._ones_array

    def cand_ceiling(
        self, owners: np.ndarray, counts: np.ndarray
    ) -> Optional[np.ndarray]:
        """Array twin of :meth:`eligible` and the budget test at
        admission: each owner's ceiling on a candidate's ``ones``.

        A candidate after ``owners[i]`` in canonical order is eligible,
        with a pair budget of at least ``counts[i]`` misses, exactly
        when its ``ones`` are at most the ceiling.  None means no
        ceiling: eligibility is the canonical order alone, and an open
        owner's budget always covers its count (the default).
        Discovery turns the ceiling into a canonical-rank window
        (:class:`repro.matrix.ops.CanonicalOrder`).
        """
        return None

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
        """The final validity test of each surviving pair: the policy's
        one emission hook."""
        raise NotImplementedError

    def make_rules(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The valid pairs' rules as ``(left, right, part, whole)``
        int64 columns, in order (see
        :meth:`repro.core.rules.RuleSet.add_columns`).  Validity comes
        from :meth:`valid_mask`; ``part`` is the hits ``ones(c_j) -
        misses``, and ``whole`` is ``ones(c_j)`` for an implication
        rule and the union ``ones(c_k) + misses`` for a similarity
        rule.
        """
        keep = self.valid_mask(owners, cands, misses)
        owners, cands, misses = owners[keep], cands[keep], misses[keep]
        ones = self.ones_array()
        if self.rule_type is ImplicationRule:
            whole = ones[owners]
        else:
            whole = ones[cands] + misses
        return owners, cands, ones[owners] - misses, whole


class ImplicationPolicy(PairPolicy):
    """Confidence-threshold mining of ``c_j => c_k`` (Algorithm 3.1).

    The budget is per-antecedent: ``maxmiss(c_j) = floor((1-minconf)*ones)``,
    which is also the add cutoff (Example 1.3).
    """

    rule_type = ImplicationRule

    def __init__(self, ones: Sequence[int], minconf: Threshold) -> None:
        super().__init__(ones)
        self.minconf: Fraction = as_fraction(minconf)
        # One ``max_misses`` call per distinct ``ones`` value.
        counts, at = np.unique(self._ones_array, return_inverse=True)
        self._maxmiss_array = np.array(
            [max_misses(o, self.minconf) for o in counts.tolist()],
            dtype=np.int64,
        )[at]
        self.maxmiss = self._maxmiss_array.tolist()

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        return self.maxmiss[column_j]

    def add_cutoff(self, column_j: int) -> int:
        return self.maxmiss[column_j]

    def maxmiss_array(self) -> np.ndarray:
        """``maxmiss`` as an int64 vector."""
        return self._maxmiss_array

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


class _OwnerMask:
    """Only the columns of the bool mask ``owners`` (None: all) own
    lists: any other is never an eligible owner, and its add cutoff is
    -1, so no scan opens it.  Each policy's scalar ``eligible`` tests it
    inline, as the zero-miss scan calls that once per pair."""

    def _own(self, owners) -> None:
        self.owners = np.ones(len(self.ones), dtype=bool)
        if owners is not None:
            self.owners[:] = owners  # a mask of another length raises
        self._cutoffs = self.owners.astype(np.int64) - 1
        self._cutoff_list = self._cutoffs.tolist()

    def add_cutoff(self, column_j: int) -> int:
        return self._cutoff_list[column_j]

    def add_cutoff_array(self) -> np.ndarray:
        return self._cutoffs


class HundredPercentPolicy(_OwnerMask, ImplicationPolicy):
    """The Section 4.3 special case: zero misses allowed anywhere, on
    lists of the ``owners`` columns (see :class:`_OwnerMask`)."""

    def __init__(
        self, ones: Sequence[int], owners: Optional[np.ndarray] = None
    ) -> None:
        super().__init__(ones, Fraction(1))
        self._own(owners)

    def eligible(self, column_j: int, candidate_k: int) -> bool:
        return self._cutoff_list[column_j] == 0 and canonical_before(
            self.ones[column_j], column_j, self.ones[candidate_k], candidate_k
        )


#: The largest column count :class:`SimilarityPolicy` accepts: its
#: snapped terms stay ``<= 2**31 + 1``, so ``q*ones`` and ``p*union``
#: stay below ``2**63``.
MAX_ONES = 2**30


class SimilarityPolicy(PairPolicy):
    """Similarity-threshold mining of unordered pairs (Algorithm 5.1).

    Budgets are per-pair (``pair_max_misses``), which subsumes the
    Section 5.1 column-density pruning (negative budget), and the
    Section 5.2 maximum-hits pruning runs as the dynamic check.  Both
    prunings can be disabled for the ablation benchmarks; disabling them
    never changes the mined rules, only the work done.

    Every decision compares some ``x/y`` with ``y <= 2*max(ones) + 1``
    against ``minsim``, so the twins use its Farey ceiling of that order
    (:func:`~repro.core.thresholds.farey_ceiling`) as ``p/q``: the same
    decisions, with terms small enough that every product fits int64
    while no column has more than :data:`MAX_ONES` 1's.
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
        largest = max(self.ones, default=0)
        if largest > MAX_ONES:
            raise ValueError(
                f"similarity mining supports at most {MAX_ONES} 1's in "
                f"one column, got {largest}"
            )
        snapped = farey_ceiling(self.minsim, 2 * largest + 1)
        self._p = snapped.numerator
        self._q = snapped.denominator
        self._add_cutoff_array = (
            self._ones_array * (self._q - self._p)
        ) // (self._p + self._q)

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

    def cand_ceiling(
        self, owners: np.ndarray, counts: np.ndarray
    ) -> Optional[np.ndarray]:
        if not self.use_density_pruning:
            return None  # the budget is the add cutoff
        # floor((q*ones_j - p*ones_k) / (p+q)) >= cnt  iff
        # p*ones_k <= q*ones_j - (p+q)*cnt; at cnt = 0, the density test.
        return (
            self._q * self.ones_array()[owners]
            - (self._p + self._q) * counts
        ) // self._p

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
        return self._add_cutoff_array

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


class IdentityPolicy(_OwnerMask, PairPolicy):
    """100%-similarity (identical columns) — DMC-sim step 2.

    Only pairs with equal cardinality are eligible, on lists of the
    ``owners`` columns (see :class:`_OwnerMask`), and no miss at all is
    allowed.
    """

    rule_type = SimilarityRule

    def __init__(
        self, ones: Sequence[int], owners: Optional[np.ndarray] = None
    ) -> None:
        super().__init__(ones)
        self._own(owners)

    def eligible(self, column_j: int, candidate_k: int) -> bool:
        return (
            self._cutoff_list[column_j] == 0
            and self.ones[column_j] == self.ones[candidate_k]
            and column_j < candidate_k
        )

    def pair_budget(self, column_j: int, candidate_k: int) -> int:
        return 0

    def cand_ceiling(
        self, owners: np.ndarray, counts: np.ndarray
    ) -> Optional[np.ndarray]:
        return self.ones_array()[owners]  # after the owner: equal ones

    def budget_array(
        self, owners: np.ndarray, cands: np.ndarray
    ) -> np.ndarray:
        return np.zeros(len(owners), dtype=np.int64)

    def valid_mask(
        self, owners: np.ndarray, cands: np.ndarray, misses: np.ndarray
    ) -> np.ndarray:
        return misses == 0
