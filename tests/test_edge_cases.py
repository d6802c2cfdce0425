"""Adversarial and regression cases for the scan engine."""

from fractions import Fraction

from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import miss_counting_scan
from repro.core.policies import SimilarityPolicy
from repro.matrix.binary_matrix import BinaryMatrix
from tests.conftest import RowTrace


class TestPaperExample51:
    """Figure 5 / Example 5.1 reconstructed: c1 has 4 ones, c2 has 5,
    one hit before r4, and maximum-hits pruning deletes the pair at r4
    even though both columns are 1 there."""

    def _matrix(self):
        rows = [
            (1,),      # r1 = {c2}
            (0, 1),    # r2 = {c1, c2} — the pair's first hit
            (1,),      # r3 = {c2}
            (0, 1),    # r4 = {c1, c2} — pruned here despite the hit
            (0,),      # r5 = {c1}
            (0, 1),    # r6 = {c1, c2}
        ]
        return BinaryMatrix(rows, n_columns=2)

    def test_pair_is_truly_invalid(self):
        matrix = self._matrix()
        truth = similarity_rules_bruteforce(matrix, 0.75)
        assert truth.pairs() == set()

    def test_max_hits_prunes_at_r4(self):
        matrix = self._matrix()
        policy = SimilarityPolicy(matrix.column_ones(), 0.75)
        trace = RowTrace()
        rules = miss_counting_scan(
            matrix, policy, order=list(range(6)), observer=trace
        )
        assert len(rules) == 0
        # Candidate exists after r2/r3, gone after r4 (a hit row!).
        assert trace.entries == [0, 1, 1, 0, 0, 0]

    def test_without_max_hits_pruning_deletion_waits_for_a_miss(self):
        matrix = self._matrix()
        policy = SimilarityPolicy(
            matrix.column_ones(), 0.75, use_max_hits_pruning=False
        )
        trace = RowTrace()
        rules = miss_counting_scan(
            matrix, policy, order=list(range(6)), observer=trace
        )
        assert len(rules) == 0
        # The pair survives r4 and dies at the r5 miss instead.
        assert trace.entries == [0, 1, 1, 1, 0, 0]


class TestMaxHitsBoundaryRegression:
    """Regression: the max-hits check must treat the current row as
    consumed.  A pair sitting exactly on its miss budget used to be
    pruned because the row being processed was double-counted (once in
    the incremented miss count, once as remaining opportunity)."""

    def _matrix(self):
        # Column 0: 7 ones; column 1: 8 ones; intersection 5 =>
        # similarity exactly 5/10 = minsim, misses == budget == 2.
        s0 = {0, 7, 11, 12, 14, 16, 17}
        s1 = {0, 4, 5, 7, 10, 12, 16, 17}
        rows = [
            [c for c, members in ((0, s0), (1, s1)) if r in members]
            for r in range(18)
        ]
        return BinaryMatrix(rows, n_columns=2)

    def test_boundary_pair_survives_both_orders(self):
        matrix = self._matrix()
        for reordering in (True, False):
            rules = find_similarity_rules(
                matrix,
                0.5,
                options=PruningOptions(row_reordering=reordering),
            )
            assert (0, 1) in rules.pairs(), reordering
            assert rules[(0, 1)].similarity == Fraction(1, 2)


class TestAdversarialMatrices:
    def test_all_ones_matrix(self):
        matrix = BinaryMatrix([[0, 1, 2]] * 4, n_columns=3)
        rules = find_implication_rules(matrix, 1)
        assert rules.pairs() == {(0, 1), (0, 2), (1, 2)}
        pairs = find_similarity_rules(matrix, 1)
        assert pairs.pairs() == {(0, 1), (0, 2), (1, 2)}

    def test_diagonal_matrix_has_no_rules(self):
        matrix = BinaryMatrix([[i] for i in range(5)], n_columns=5)
        assert len(find_implication_rules(matrix, 0.5)) == 0
        assert len(find_similarity_rules(matrix, 0.5)) == 0

    def test_duplicate_rows_scale_counts_not_rules(self):
        base = BinaryMatrix([[0, 1], [0], [1, 2]], n_columns=3)
        doubled = BinaryMatrix(
            [row for _, row in base.iter_rows() for _ in range(2)],
            n_columns=3,
        )
        for threshold in (1.0, 0.5):
            assert (
                find_implication_rules(base, threshold).pairs()
                == find_implication_rules(doubled, threshold).pairs()
            )

    def test_single_column(self):
        matrix = BinaryMatrix([[0], [0]], n_columns=1)
        assert len(find_implication_rules(matrix, 0.5)) == 0

    def test_very_low_threshold(self):
        matrix = BinaryMatrix(
            [[0, 1], [0], [1], [0, 2], [2, 1]], n_columns=3
        )
        threshold = Fraction(1, 12)
        got = find_implication_rules(matrix, threshold).pairs()
        want = implication_rules_bruteforce(matrix, threshold).pairs()
        assert got == want

    def test_wide_matrix_single_row(self):
        matrix = BinaryMatrix([list(range(40))], n_columns=40)
        rules = find_implication_rules(matrix, 1)
        assert len(rules) == 40 * 39 // 2

    def test_column_with_all_rows(self):
        # One column set in every row: every other column implies it.
        rows = [[0, 1 + (i % 3)] for i in range(9)]
        matrix = BinaryMatrix(rows, n_columns=4)
        rules = find_implication_rules(matrix, 1)
        assert {(1, 0), (2, 0), (3, 0)} <= rules.pairs()

    def test_threshold_exactly_one_over_n(self):
        # ones(0)=10 < ones(1)=21, so 0 => 1 is the canonical direction.
        matrix = BinaryMatrix(
            [[0, 1]] + [[0]] * 9 + [[1]] * 20, n_columns=2
        )
        # conf(0 => 1) = 1/10; threshold exactly 1/10 keeps it.
        rules = find_implication_rules(matrix, Fraction(1, 10))
        assert (0, 1) in rules.pairs()
        rules = find_implication_rules(matrix, Fraction(11, 100))
        assert (0, 1) not in rules.pairs()
