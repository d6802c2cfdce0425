"""The DMC-bitmap tail (repro.core.bitmap, Algorithm 4.1), shared by the
serial, zero-miss and vector scans."""

from fractions import Fraction

import numpy as np
import pytest

import repro
import repro.core.bitmap as bitmap_module
import repro.matrix.ops as ops
from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.bitmap import bitmap_tail
from repro.core.dmc_imp import PruningOptions
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
from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.core.stats import ScanStats
from repro.core.vector import vector_scan
from repro.datasets.registry import load_dataset
from repro.experiments.figures import SCALED_BITMAP
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.ops import DEFAULT_BLOCK_ROWS, RowBlocks
from repro.matrix.reorder import scan_order
from repro.runtime.guards import MemoryGuard
from tests.conftest import random_binary_matrix

_NO_PAIRS = np.empty(0, dtype=np.int64)


def _run_tail_only(matrix, policy):
    """Run the tail over the whole matrix (switch at row zero)."""
    rules = RuleSet()
    stats = ScanStats()
    remaining = [(r, row) for r, row in matrix.iter_rows() if row]
    bitmap_tail(
        RowBlocks(remaining),
        policy,
        np.zeros(matrix.n_columns, dtype=np.int64),
        _NO_PAIRS,
        _NO_PAIRS,
        _NO_PAIRS,
        rules,
        stats,
        switch_at=0,
    )
    return rules, stats


def _n_rows(matrix):
    return sum(1 for _, row in matrix.iter_rows() if row)


class TestTailAlone:
    """With cnt == 0 everywhere, Phase 2 must mine the whole matrix."""

    def test_implication_from_scratch(self):
        for seed in range(10):
            matrix = random_binary_matrix(seed)
            policy = ImplicationPolicy(matrix.column_ones(), 0.7)
            rules, _ = _run_tail_only(matrix, policy)
            assert rules == implication_rules_bruteforce(matrix, 0.7), seed

    def test_similarity_from_scratch(self):
        for seed in range(10):
            matrix = random_binary_matrix(seed)
            policy = SimilarityPolicy(matrix.column_ones(), 0.6)
            rules, _ = _run_tail_only(matrix, policy)
            assert rules == similarity_rules_bruteforce(matrix, 0.6), seed

    def test_identity_from_scratch(self):
        matrix = BinaryMatrix(
            [[0, 1, 3], [0, 1], [0, 1, 2, 3]], n_columns=4
        )
        policy = IdentityPolicy(matrix.column_ones())
        rules, _ = _run_tail_only(matrix, policy)
        assert rules.pairs() == {(0, 1)}

    def test_stats_record_bitmap_bytes_and_columns(self):
        matrix = random_binary_matrix(4)
        policy = ImplicationPolicy(matrix.column_ones(), 0.7)
        _, stats = _run_tail_only(matrix, policy)
        assert stats.bitmap_bytes > 0
        assert stats.bitmap_phase2_columns > 0
        assert stats.bitmap_seconds > 0


#: (scan, policy factory) pairs every switch point is swept over; the
#: zero-miss scan only runs zero-budget policies.
_SWEEPS = {
    "serial-implication": (
        miss_counting_scan, lambda ones: ImplicationPolicy(ones, 0.6),
    ),
    "serial-similarity": (
        miss_counting_scan, lambda ones: SimilarityPolicy(ones, 0.5),
    ),
    "serial-hundred": (miss_counting_scan, HundredPercentPolicy),
    "vector-implication": (
        vector_scan, lambda ones: ImplicationPolicy(ones, 0.6),
    ),
    "vector-similarity": (
        vector_scan, lambda ones: SimilarityPolicy(ones, 0.5),
    ),
    "vector-identity": (vector_scan, IdentityPolicy),
    "vector-hundred": (vector_scan, HundredPercentPolicy),
    "zero-miss-identity": (zero_miss_scan, IdentityPolicy),
    "zero-miss-hundred": (zero_miss_scan, HundredPercentPolicy),
}


class TestSwitchAtEveryPoint:
    """Forcing the switch at any remaining-row count must not change
    the mined rules — the strongest equivalence check for the tail."""

    @staticmethod
    def _sweep(scan, make_policy, seed, **kwargs):
        matrix = random_binary_matrix(seed)
        policy = make_policy(matrix.column_ones())
        baseline = miss_counting_scan(matrix, policy)
        for remaining in range(1, _n_rows(matrix) + 1):
            config = BitmapConfig(
                switch_rows=remaining, memory_budget_bytes=0
            )
            got = scan(matrix, policy, bitmap=config, **kwargs)
            assert got == baseline, remaining

    def test_implication_all_switch_points(self):
        self._sweep(*_SWEEPS["serial-implication"], seed=8)

    def test_similarity_all_switch_points(self):
        self._sweep(*_SWEEPS["serial-similarity"], seed=9)

    def test_hundred_percent_all_switch_points(self):
        self._sweep(*_SWEEPS["serial-hundred"], seed=10)

    @pytest.mark.parametrize(
        "name", [name for name in _SWEEPS if not name.startswith("serial")]
    )
    def test_every_scan_all_switch_points(self, name):
        scan, make_policy = _SWEEPS[name]
        kwargs = {"block_rows": 3} if scan is vector_scan else {}
        for seed in (8, 9, 10):
            self._sweep(scan, make_policy, seed, **kwargs)

    def test_zero_miss_and_serial_tails_count_alike(self):
        """The zero-miss scan hands over its id-set lists (empty ones
        included) exactly as the serial scan hands over its counters."""
        fields = (
            "candidates_added", "candidates_rejected", "rules_emitted",
            "misses_recorded", "bitmap_phase1_columns",
            "bitmap_phase2_columns", "bitmap_bytes",
        )
        matrix = random_binary_matrix(10)
        policy = HundredPercentPolicy(matrix.column_ones())
        for remaining in range(1, _n_rows(matrix) + 1):
            config = BitmapConfig(
                switch_rows=remaining, memory_budget_bytes=0
            )
            serial, zero = ScanStats(), ScanStats()
            miss_counting_scan(matrix, policy, bitmap=config, stats=serial)
            zero_miss_scan(matrix, policy, bitmap=config, stats=zero)
            for field in fields:
                assert getattr(zero, field) == getattr(serial, field), (
                    remaining, field,
                )


class TestPhaseSplit:
    def test_closed_columns_go_through_phase1(self):
        # Column 0 has low budget: after two misses it is closed, so at
        # switch time it must be finished by Phase 1.
        matrix = BinaryMatrix(
            [[0, 1], [0], [0], [0, 1], [1], [0, 1]], n_columns=2
        )
        policy = ImplicationPolicy(matrix.column_ones(), 0.75)
        stats = ScanStats()
        config = BitmapConfig(switch_rows=2, memory_budget_bytes=0)
        miss_counting_scan(matrix, policy, bitmap=config, stats=stats)
        assert stats.bitmap_phase1_columns >= 1


def _tall_matrix(seed=3, n_rows=DEFAULT_BLOCK_ROWS + 500, n_columns=24):
    generator = np.random.default_rng(seed)
    dense = generator.random((n_rows, n_columns)) < 0.2
    # A few near-duplicate columns so high thresholds still mine rules.
    dense[:, 1] = dense[:, 0] | (generator.random(n_rows) < 0.02)
    dense[:, 3] = dense[:, 2]
    return BinaryMatrix.from_dense(dense.astype(np.uint8))


class TestBlockedTail:
    """A guard tripping at row 1 leaves more than one block of rows to
    the tail; it must stay exact and never build a dense array over
    more rows than one block."""

    @pytest.fixture
    def block_sizes(self, monkeypatch):
        seen = []
        real = bitmap_module.dense_block

        def recording(lengths, cols, n_columns):
            seen.append(len(lengths))
            return real(lengths, cols, n_columns)

        monkeypatch.setattr(bitmap_module, "dense_block", recording)
        return seen

    @pytest.mark.parametrize("scan", ["serial", "zero-miss", "vector"])
    def test_guard_trip_at_row_one(self, scan, block_sizes):
        matrix = _tall_matrix()
        assert _n_rows(matrix) - 1 > DEFAULT_BLOCK_ROWS
        ones = matrix.column_ones()
        if scan == "zero-miss":
            policy = HundredPercentPolicy(ones)
            want = implication_rules_bruteforce(matrix, 1)
            run, kwargs = zero_miss_scan, {}
        else:
            policy = ImplicationPolicy(ones, Fraction(7, 10))
            want = implication_rules_bruteforce(matrix, Fraction(7, 10))
            run, kwargs = miss_counting_scan, {}
            if scan == "vector":
                # One-row blocks put the engine's first guard check
                # at row 1.
                run, kwargs = vector_scan, {"block_rows": 1}
        stats = ScanStats()
        guard = MemoryGuard(budget_bytes=1)
        got = run(matrix, policy, stats=stats, guard=guard, **kwargs)
        assert stats.guard_tripped_at == stats.bitmap_switch_at == 1
        assert got == want
        assert len(want) > 0
        assert block_sizes and max(block_sizes) <= DEFAULT_BLOCK_ROWS
        assert stats.accounting_balanced()

    def test_chunked_discovery_and_packed_hits(self, monkeypatch):
        """Without the dense co-occurrence matrix the tail discovers new
        pairs in tiny sparse-product chunks and counts live-pair hits
        with the packed popcount kernel; the rules must not change."""
        monkeypatch.setattr(
            bitmap_module, "block_co_matrix", lambda dense, n_open: None
        )
        monkeypatch.setattr(ops, "_PAIR_CHUNK_ENTRIES", 16)
        monkeypatch.setattr(ops, "_GATHER_PAIR_CELLS", 0)
        matrix = _tall_matrix()
        for policy, want in (
            (
                ImplicationPolicy(matrix.column_ones(), Fraction(7, 10)),
                implication_rules_bruteforce(matrix, Fraction(7, 10)),
            ),
            (
                SimilarityPolicy(matrix.column_ones(), Fraction(1, 2)),
                similarity_rules_bruteforce(matrix, Fraction(1, 2)),
            ),
        ):
            config = BitmapConfig(switch_rows=1200, memory_budget_bytes=0)
            got = miss_counting_scan(
                matrix, policy, order=scan_order(matrix), bitmap=config
            )
            assert got == want


#: Per-scan counters on plinkT (scale 0.5 unless noted), as recorded
#: with the per-pair tail this one replaced: (candidates_added,
#: candidates_rejected, rules_emitted, misses_recorded,
#: bitmap_phase1_columns, bitmap_phase2_columns, bitmap_bytes,
#: bitmap_switch_at).  ``mine`` keys hold (100% pass, <100% pass).
#: At scale 0.5 the counter array never outgrows SCALED_BITMAP's
#: budget, so the scan keys force the switch in its 64-row window.
_PINNED = {
    ("mine", 0.5, "dmc"): (
        (2689, 0, 1287, 1402, 0, 0, 0, None),
        (1986, 0, 181, 2625, 0, 0, 0, None),
    ),
    ("mine", 0.5, "vector"): (
        (2689, 0, 1287, 1402, 0, 0, 0, None),
        (6768, 0, 181, 24282, 0, 0, 0, None),
    ),
    ("mine", 1, "dmc"): (
        (40736, 20098, 19450, 2674, 914, 116, 8240, 996),
        (39665, 36595, 934, 8022, 623, 104, 5816, 970),
    ),
    ("mine", 1, "vector"): (
        (40736, 20098, 19450, 2674, 914, 116, 8240, 996),
        (44753, 36595, 934, 39361, 195, 104, 5816, 970),
    ),
    # The stream replays its spill buckets with removed columns filtered
    # out instead of re-bucketing the restricted rows, so its <100% pass
    # sees another row order than the in-memory carriers.
    ("mine", 0.5, "stream"): (
        (2689, 0, 1287, 1402, 0, 0, 0, None),
        (2093, 0, 181, 2826, 0, 0, 0, None),
    ),
    ("mine", 0.5, "stream+vector"): (
        (2689, 0, 1287, 1402, 0, 0, 0, None),
        (6546, 0, 181, 23034, 0, 0, 0, None),
    ),
    ("mine", 1, "stream"): (
        (40736, 20098, 19450, 2674, 914, 116, 8240, 996),
        (36547, 33137, 934, 8538, 654, 90, 5952, 996),
    ),
    ("mine", 1, "stream+vector"): (
        (40736, 20098, 19450, 2674, 914, 116, 8240, 996),
        (42412, 33137, 934, 44006, 214, 90, 5952, 996),
    ),
    ("hundred", "serial"): (4610, 2707, 1287, 1135, 448, 36, 3872, 492),
    ("hundred", "zero-miss"): (4610, 2707, 1287, 1135, 448, 36, 3872, 492),
    ("hundred", "vector"): (7550, 2707, 1287, 11568, 100, 36, 3872, 492),
    ("implication", "serial"): (8659, 6169, 1405, 3349, 417, 67, 3872, 492),
    ("implication", "vector"): (
        10626, 6169, 1405, 12547, 174, 67, 3872, 492,
    ),
    ("similarity", "serial"): (2255, 1852, 125, 489, 417, 67, 3872, 492),
    ("similarity", "vector"): (3469, 1827, 125, 6018, 54, 67, 3872, 492),
    ("identity", "serial"): (171, 122, 14, 63, 448, 36, 3872, 492),
    ("identity", "zero-miss"): (171, 122, 14, 63, 448, 36, 3872, 492),
    ("identity", "vector"): (333, 122, 14, 653, 19, 36, 3872, 492),
}

_PIN_FIELDS = (
    "candidates_added", "candidates_rejected", "rules_emitted",
    "misses_recorded", "bitmap_phase1_columns", "bitmap_phase2_columns",
    "bitmap_bytes", "bitmap_switch_at",
)


def _counters(stats):
    return tuple(getattr(stats, field) for field in _PIN_FIELDS)


class TestStatsPinned:
    """The array tail keeps every ScanStats counter of the per-pair
    tail, so rules *and* statistics stay identical for every engine."""

    @pytest.mark.parametrize("scale", [0.5, 1])
    @pytest.mark.parametrize(
        "engine", ["dmc", "vector", "stream", "stream+vector"]
    )
    def test_mine_with_scaled_bitmap(self, scale, engine):
        matrix = load_dataset("plinkT", scale=scale)
        carrier, _, scan = engine.partition("+")
        options = PruningOptions(scan_engine=scan or "serial")
        result = repro.mine(
            matrix, engine=carrier, minconf="3/4", bitmap=SCALED_BITMAP,
            options=options,
        )
        assert result.engine == engine
        got = (
            _counters(result.stats.hundred_percent_scan),
            _counters(result.stats.partial_scan),
        )
        assert got == _PINNED[("mine", scale, engine)]

    def test_forced_switch_every_scan(self):
        matrix = load_dataset("plinkT", scale=0.5)
        ones = matrix.column_ones()
        order = scan_order(matrix)
        policies = {
            "hundred": HundredPercentPolicy(ones),
            "implication": ImplicationPolicy(ones, "3/4"),
            "similarity": SimilarityPolicy(ones, "3/5"),
            "identity": IdentityPolicy(ones),
        }
        scans = {
            "serial": miss_counting_scan,
            "zero-miss": zero_miss_scan,
            "vector": vector_scan,
        }
        config = BitmapConfig(
            switch_rows=SCALED_BITMAP.switch_rows, memory_budget_bytes=0
        )
        for key, want in _PINNED.items():
            if key[0] == "mine":
                continue
            policy_name, scan_name = key
            stats = ScanStats()
            scans[scan_name](
                matrix, policies[policy_name], order=order, stats=stats,
                bitmap=config,
            )
            assert _counters(stats) == want, (policy_name, scan_name)


def _policies(ones):
    return [
        ImplicationPolicy(ones, Fraction(2, 3)),
        HundredPercentPolicy(ones),
        SimilarityPolicy(ones, Fraction(1, 2)),
        IdentityPolicy(ones),
    ]


class TestBulkEmission:
    """``make_rules`` / ``add_many`` against ``make_rule`` / ``add``."""

    @staticmethod
    def _all_pairs(ones):
        n = len(ones)
        owners, cands = np.divmod(np.arange(n * n, dtype=np.int64), n)
        keep = owners != cands
        owners, cands = owners[keep], cands[keep]
        misses = np.asarray(ones, dtype=np.int64)[owners] // 2
        misses[::3] = 0
        return owners, cands, misses

    def test_make_rules_matches_make_rule(self):
        ones = [3, 4, 4, 6, 8, 8, 1]
        owners, cands, misses = self._all_pairs(ones)
        for policy in _policies(ones):
            assert policy.vector_ready()
            want = [
                rule
                for rule in map(
                    policy.make_rule, owners.tolist(), cands.tolist(),
                    misses.tolist(),
                )
                if rule is not None
            ]
            got = policy.make_rules(owners, cands, misses)
            assert got == want, type(policy).__name__
            assert want, type(policy).__name__

    def test_make_rules_falls_back_to_exact_fractions(self):
        """Thresholds whose int64 twins could overflow take the exact
        per-rule path; the tail on such a policy stays exact too."""
        ones = [3, 4, 4, 6]
        huge = 2**80
        policy = SimilarityPolicy(ones, Fraction(huge - 1, 2 * huge))
        assert not policy.vector_ready()
        owners, cands, misses = self._all_pairs(ones)
        want = [
            rule
            for rule in map(
                policy.make_rule, owners.tolist(), cands.tolist(),
                misses.tolist(),
            )
            if rule is not None
        ]
        assert policy.make_rules(owners, cands, misses) == want
        assert want

        matrix = random_binary_matrix(9)
        minsim = Fraction(huge - 1, 2 * huge)
        policy = SimilarityPolicy(matrix.column_ones(), minsim)
        assert not policy.vector_ready()
        config = BitmapConfig(switch_rows=1000, memory_budget_bytes=0)
        got = miss_counting_scan(matrix, policy, bitmap=config)
        assert got == similarity_rules_bruteforce(matrix, minsim)

    def test_add_many_matches_add(self):
        rules = [
            ImplicationRule(0, 1, 3, 4),
            ImplicationRule(2, 1, 1, 2),
            ImplicationRule(0, 1, 3, 4),  # identical duplicate in batch
        ]
        one_by_one = RuleSet()
        for rule in rules:
            one_by_one.add(rule)
        bulk = RuleSet([ImplicationRule(2, 1, 1, 2)])
        bulk.add_many(rules)
        assert bulk == one_by_one
        assert len(bulk) == 2

    def test_add_many_rejects_conflicts(self):
        existing = RuleSet([SimilarityRule(0, 1, 2, 3)])
        with pytest.raises(ValueError, match="conflicting"):
            existing.add_many([
                SimilarityRule(1, 2, 1, 1), SimilarityRule(0, 1, 2, 4),
            ])
        # The check runs before anything is inserted.
        assert existing.pairs() == {(0, 1)}
        with pytest.raises(ValueError, match="conflicting"):
            RuleSet().add_many([
                SimilarityRule(0, 1, 2, 3), SimilarityRule(0, 1, 2, 4),
            ])
