"""The DMC-base scan engine (repro.core.miss_counting, Algorithm 3.1).

Includes the paper's worked examples as ground-truth anchors:
Example 1.2 (Figure 1), Example 1.3, and Example 3.1 (Figure 2) with
its per-row candidate counts under both scan orders.
"""

import bisect
from fractions import Fraction

import numpy as np
import pytest

from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.miss_counting import (
    BitmapConfig,
    miss_counting_scan,
    zero_miss_scan,
)
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.stats import PruningCurve, ScanStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.observe import RunJournal, RunObserver, summarize_journal
from tests.conftest import (
    EXAMPLE12_100_RULES,
    EXAMPLE31_RULES,
    EXAMPLE31_SPARSEST_ORDER,
    RowTrace,
    random_binary_matrix,
)


class TestPaperExample12:
    """Figure 1: only c3 => c2 survives at 100% confidence."""

    def test_hundred_percent_rules(self, example12):
        policy = HundredPercentPolicy(example12.column_ones())
        rules = miss_counting_scan(example12, policy)
        assert rules.pairs() == EXAMPLE12_100_RULES

    def test_zero_miss_fast_path_agrees(self, example12):
        policy = HundredPercentPolicy(example12.column_ones())
        rules = zero_miss_scan(example12, policy)
        assert rules.pairs() == EXAMPLE12_100_RULES

    def test_candidates_killed_at_r3(self, example12):
        """r3 = {c1} kills c1 => c2 and c1 => c3 immediately."""
        policy = HundredPercentPolicy(example12.column_ones())
        stats = ScanStats()
        miss_counting_scan(example12, policy, stats=stats)
        assert stats.candidates_deleted >= 2


class TestPaperExample31:
    """Figure 2: 80% confidence, six columns of five 1's each."""

    def test_final_rules(self, example31):
        policy = ImplicationPolicy(example31.column_ones(), 0.8)
        rules = miss_counting_scan(example31, policy)
        assert rules.pairs() == EXAMPLE31_RULES

    def test_one_miss_allowed_per_column(self, example31):
        policy = ImplicationPolicy(example31.column_ones(), 0.8)
        assert all(budget == 1 for budget in policy.maxmiss)

    def test_candidate_history_original_order(self, example31):
        """The paper reports (1,4,4,7,9,7,7,6,2); the reconstruction
        matches the first five counts exactly (the narrative through
        r4+r5) and ends at 0 because this implementation frees a list
        when its rules are emitted."""
        policy = ImplicationPolicy(example31.column_ones(), 0.8)
        trace = RowTrace()
        miss_counting_scan(
            example31, policy, order=list(range(9)), observer=trace
        )
        assert trace.entries[:5] == [1, 4, 4, 7, 9]
        assert trace.entries[-1] == 0

    def test_candidate_history_sparsest_order(self, example31):
        """The paper reports (1,2,3,5,6,8,5,2,2) for the order
        (r1,r3,r8,r2,r5,r4,r6,r9,r7); all but the final release-time
        entry match."""
        policy = ImplicationPolicy(example31.column_ones(), 0.8)
        trace = RowTrace()
        rules = miss_counting_scan(
            example31,
            policy,
            order=list(EXAMPLE31_SPARSEST_ORDER),
            observer=trace,
        )
        assert trace.entries[:8] == [1, 2, 3, 5, 6, 8, 5, 2]
        assert rules.pairs() == EXAMPLE31_RULES

    def test_reordering_reduces_peak_candidates(self, example31):
        policy = ImplicationPolicy(example31.column_ones(), 0.8)
        original = ScanStats()
        miss_counting_scan(
            example31, policy, order=list(range(9)), stats=original
        )
        reordered = ScanStats()
        miss_counting_scan(
            example31,
            policy,
            order=list(EXAMPLE31_SPARSEST_ORDER),
            stats=reordered,
        )
        assert reordered.peak_entries < original.peak_entries

    def test_against_oracle(self, example31):
        truth = implication_rules_bruteforce(example31, 0.8)
        assert truth.pairs() == EXAMPLE31_RULES


class TestPaperExample13:
    """Example 1.3: 100 ones at 85% => 15 misses; no new candidates
    after 16 antecedent rows."""

    def test_add_cutoff(self):
        policy = ImplicationPolicy([100, 200], 0.85)
        assert policy.add_cutoff(0) == 15  # 16th row => cnt 16 > 15


class TestEngineAgainstOracle:
    def test_implication_random(self):
        for seed in range(25):
            matrix = random_binary_matrix(seed)
            for threshold in (1.0, 0.8, 0.5):
                policy = ImplicationPolicy(matrix.column_ones(), threshold)
                got = miss_counting_scan(matrix, policy).pairs()
                want = implication_rules_bruteforce(
                    matrix, threshold
                ).pairs()
                assert got == want, (seed, threshold)

    def test_similarity_random(self):
        for seed in range(25):
            matrix = random_binary_matrix(seed)
            for threshold in (1.0, 0.75, 0.4):
                policy = SimilarityPolicy(matrix.column_ones(), threshold)
                got = miss_counting_scan(matrix, policy).pairs()
                want = similarity_rules_bruteforce(
                    matrix, threshold
                ).pairs()
                assert got == want, (seed, threshold)

    def test_row_order_invariance(self):
        matrix = random_binary_matrix(77)
        policy = ImplicationPolicy(matrix.column_ones(), 0.7)
        baseline = miss_counting_scan(matrix, policy).pairs()
        reversed_order = [
            r for r, row in matrix.iter_rows() if row
        ][::-1]
        assert (
            miss_counting_scan(
                matrix, policy, order=reversed_order
            ).pairs()
            == baseline
        )

    def test_zero_miss_scan_equals_generic_engine(self):
        for seed in range(15):
            matrix = random_binary_matrix(seed)
            policy = HundredPercentPolicy(matrix.column_ones())
            assert (
                zero_miss_scan(matrix, policy).pairs()
                == miss_counting_scan(matrix, policy).pairs()
            )

    def test_zero_miss_scan_identity_policy(self):
        for seed in range(15):
            matrix = random_binary_matrix(seed)
            policy = IdentityPolicy(matrix.column_ones())
            want = similarity_rules_bruteforce(matrix, 1).pairs()
            assert zero_miss_scan(matrix, policy).pairs() == want


class TestEdgeCases:
    def test_empty_matrix(self):
        matrix = BinaryMatrix([], n_columns=0)
        policy = ImplicationPolicy([], 0.5)
        assert len(miss_counting_scan(matrix, policy)) == 0

    def test_all_zero_columns(self):
        matrix = BinaryMatrix([[], []], n_columns=3)
        policy = ImplicationPolicy(matrix.column_ones(), 0.5)
        assert len(miss_counting_scan(matrix, policy)) == 0

    def test_single_row(self):
        matrix = BinaryMatrix([[0, 1, 2]], n_columns=3)
        policy = ImplicationPolicy(matrix.column_ones(), 1)
        rules = miss_counting_scan(matrix, policy)
        # All pairs are 100% rules; canonical tie-break is by id.
        assert rules.pairs() == {(0, 1), (0, 2), (1, 2)}

    def test_identical_columns_full_confidence_both_ways(self):
        matrix = BinaryMatrix([[0, 1], [0, 1]], n_columns=2)
        policy = ImplicationPolicy(matrix.column_ones(), 1)
        # Only the canonical direction (0 => 1) is mined.
        assert miss_counting_scan(matrix, policy).pairs() == {(0, 1)}

    def test_rules_emitted_as_columns_complete(self):
        matrix = BinaryMatrix([[0, 1], [1]], n_columns=2)
        policy = ImplicationPolicy(matrix.column_ones(), 1)
        stats = ScanStats()
        rules = miss_counting_scan(matrix, policy, stats=stats)
        assert rules.pairs() == {(0, 1)}
        assert stats.rules_emitted == 1

    def test_on_row_fires_once_per_nonempty_row(self):
        matrix = BinaryMatrix([[0], [], [1]], n_columns=2)
        policy = ImplicationPolicy(matrix.column_ones(), 1)
        stats = ScanStats()
        trace = RowTrace()
        miss_counting_scan(matrix, policy, stats=stats, observer=trace)
        assert stats.rows_scanned == 2
        assert len(trace.entries) == len(trace.memory) == 2
        assert stats.peak_entries == max(trace.entries)
        assert stats.peak_bytes == max(trace.memory)


class TestBitmapSwitchInsideScan:
    def test_forced_switch_preserves_results(self):
        for seed in range(15):
            matrix = random_binary_matrix(seed)
            policy = ImplicationPolicy(matrix.column_ones(), 0.6)
            baseline = miss_counting_scan(matrix, policy).pairs()
            forced = BitmapConfig(
                switch_rows=10**9, memory_budget_bytes=0
            )
            stats = ScanStats()
            switched = miss_counting_scan(
                matrix, policy, bitmap=forced, stats=stats
            ).pairs()
            assert switched == baseline, seed

    def test_switch_records_position(self):
        matrix = random_binary_matrix(3)
        policy = ImplicationPolicy(matrix.column_ones(), 0.6)
        stats = ScanStats()
        miss_counting_scan(
            matrix,
            policy,
            bitmap=BitmapConfig(switch_rows=10**9, memory_budget_bytes=0),
            stats=stats,
        )
        # The empty counter array (0 bytes) cannot exceed the budget, so
        # the switch fires right after the first row creates a list.
        assert stats.bitmap_switch_at == 1

    def test_never_switches_under_large_budget(self):
        matrix = random_binary_matrix(3)
        policy = ImplicationPolicy(matrix.column_ones(), 0.6)
        stats = ScanStats()
        miss_counting_scan(
            matrix, policy, bitmap=BitmapConfig(), stats=stats
        )
        assert stats.bitmap_switch_at is None


class TestEngineMisuse:
    def test_mismatched_policy_rejected(self):
        import pytest

        matrix = BinaryMatrix([[0, 1]], n_columns=2)
        policy = ImplicationPolicy([1, 1, 1], 0.5)  # 3 columns
        with pytest.raises(ValueError):
            miss_counting_scan(matrix, policy)
        with pytest.raises(ValueError):
            zero_miss_scan(matrix, HundredPercentPolicy([1, 1, 1]))

    def test_streaming_core_direct_use(self):
        from repro.core.miss_counting import miss_counting_scan_rows

        rows = [(0, (0, 1)), (1, (0, 1)), (2, (1,))]
        policy = ImplicationPolicy([2, 3], 1)
        rules = miss_counting_scan_rows(iter(rows), 3, policy)
        assert rules.pairs() == {(0, 1)}

    def test_streaming_core_short_stream_tolerated(self):
        from repro.core.miss_counting import miss_counting_scan_rows

        rows = [(0, (0, 1))]
        policy = ImplicationPolicy([1, 1], 1)
        # n_rows over-declared: the engine stops at stream end.
        rules = miss_counting_scan_rows(iter(rows), 5, policy)
        assert rules.pairs() == {(0, 1)}


def _curve_matrix() -> BinaryMatrix:
    """90 rows with copied columns (100% and identical pairs) and noisy
    copies (partial rules), so every scan finishes columns with rules
    all along the scan."""
    generator = np.random.default_rng(7)
    base = generator.random((90, 10)) < 0.3
    noisy = (base & (generator.random((90, 10)) < 0.85)) | (
        generator.random((90, 10)) < 0.05
    )
    return BinaryMatrix.from_dense(
        np.hstack([base, base[:, :3], noisy]).astype(np.uint8)
    )


#: ``id -> (scan, policy factory)``: both serial scans, both tasks.
CURVE_CASES = {
    "implication-serial": (
        miss_counting_scan,
        lambda ones: ImplicationPolicy(ones, Fraction(7, 10)),
    ),
    "implication-zero-miss": (zero_miss_scan, HundredPercentPolicy),
    "similarity-serial": (
        miss_counting_scan,
        lambda ones: SimilarityPolicy(ones, Fraction(1, 2)),
    ),
    "similarity-zero-miss": (zero_miss_scan, IdentityPolicy),
}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_curve_counts_the_rules_of_finished_columns(tmp_path, case):
    """Every pruning-curve point's ``rules_emitted`` is the number of
    mined rules whose left column has its last 1 within the rows
    scanned so far (the serial scans emit before each sample), and a
    ``RunObserver`` journal carries the same points."""
    scan, make_policy = CURVE_CASES[case]
    matrix = _curve_matrix()
    order = scan_order(matrix)
    stats = ScanStats(pruning_curve=PruningCurve(every=1))
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path, "run-1") as journal:
        rules = scan(
            matrix, make_policy(matrix.column_ones()), order=order,
            stats=stats, observer=RunObserver(journal=journal),
        )

    last = {}
    for position, row_id in enumerate(order):
        for column in matrix.row(row_id):
            last[column] = position
    finished_at = sorted(last[left] for left in rules.columns()[0].tolist())
    points = stats.pruning_curve.points
    assert [point[0] for point in points] == list(range(1, len(order) + 1))
    emitted = [point[3] for point in points]
    assert emitted == [
        bisect.bisect_left(finished_at, rows) for rows, *_ in points
    ]
    assert emitted[-1] == len(rules) == stats.rules_emitted
    # Rules finish all along the scan, not only at its end.
    assert len(set(emitted)) > 3, emitted
    assert summarize_journal(path)["pruning_curves"]["scan"] == [
        list(point) for point in points
    ]
