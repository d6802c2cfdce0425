"""Divide-and-conquer DMC (repro.core.partitioned, Section 7)."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro

from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.partitioned import (
    _partition_rows,
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.matrix.binary_matrix import BinaryMatrix
from tests.conftest import random_binary_matrix


class TestPartitioning:
    def test_round_robin_covers_all_rows(self):
        matrix = BinaryMatrix([[0]] * 10, n_columns=1)
        chunks = _partition_rows(matrix, 3)
        assert sorted(r for chunk in chunks for r in chunk) == list(
            range(10)
        )

    def test_more_partitions_than_rows(self):
        matrix = BinaryMatrix([[0]] * 2, n_columns=1)
        chunks = _partition_rows(matrix, 5)
        assert len(chunks) == 2  # empty chunks dropped

    def test_invalid_partition_count(self):
        matrix = BinaryMatrix([[0]], n_columns=1)
        with pytest.raises(ValueError):
            _partition_rows(matrix, 0)

    def test_every_row_exactly_once(self):
        """No row is lost or duplicated, for any partition count."""
        for n_rows in (1, 2, 7, 10, 23):
            matrix = BinaryMatrix([[0]] * n_rows, n_columns=1)
            for n_partitions in (1, 2, 3, 5, 8, 40):
                chunks = _partition_rows(matrix, n_partitions)
                flat = [r for chunk in chunks for r in chunk]
                assert sorted(flat) == list(range(n_rows)), (
                    n_rows, n_partitions,
                )

    def test_partition_sizes_balanced_within_one(self):
        """Round-robin keeps non-empty chunk sizes within +-1."""
        for n_rows in (5, 9, 16, 31):
            matrix = BinaryMatrix([[0]] * n_rows, n_columns=1)
            for n_partitions in (2, 3, 4, 7):
                sizes = [
                    len(chunk)
                    for chunk in _partition_rows(matrix, n_partitions)
                ]
                assert max(sizes) - min(sizes) <= 1, (n_rows, n_partitions)

    def test_empty_matrix_mines_no_rules(self):
        matrix = BinaryMatrix([], n_columns=3)
        rules = find_implication_rules_partitioned(
            matrix, 0.7, n_partitions=4, n_workers=4
        )
        assert len(rules) == 0


class TestImplication:
    def test_matches_oracle(self):
        for seed in range(12):
            matrix = random_binary_matrix(seed)
            for n_partitions in (1, 2, 4):
                got = find_implication_rules_partitioned(
                    matrix, 0.7, n_partitions=n_partitions
                ).pairs()
                want = implication_rules_bruteforce(matrix, 0.7).pairs()
                assert got == want, (seed, n_partitions)

    def test_direction_flip_across_partitions(self):
        """A pair whose canonical direction differs between a partition
        and the full data must still be found (the reason local mining
        drops the canonical restriction)."""
        # Round-robin with 2 partitions: even rows / odd rows.
        # Globally ones(c0)=4 > ones(c1)=3, but on the even partition
        # c0 is the sparser column.
        rows = [
            [0, 1],  # even
            [0, 1],  # odd
            [1],     # even
            [0],     # odd
            [0],     # even -> even partition: c0:3, c1:2
        ]
        matrix = BinaryMatrix(rows, n_columns=2)
        got = find_implication_rules_partitioned(
            matrix, 0.6, n_partitions=2
        ).pairs()
        want = implication_rules_bruteforce(matrix, 0.6).pairs()
        assert got == want

    def test_partition_candidate_counts_on_stats(self):
        from repro.core.stats import PipelineStats

        matrix = random_binary_matrix(4)
        stats = PipelineStats()
        counted = find_implication_rules_partitioned(
            matrix, 0.8, n_partitions=3, stats=stats
        ).pairs()
        assert len(stats.partition_candidates) == 3
        assert all(count >= 0 for count in stats.partition_candidates)
        plain = find_implication_rules_partitioned(
            matrix, 0.8, n_partitions=3
        ).pairs()
        assert counted == plain


class TestSimilarity:
    def test_matches_oracle(self):
        for seed in range(12):
            matrix = random_binary_matrix(seed)
            for n_partitions in (1, 3):
                got = find_similarity_rules_partitioned(
                    matrix, 0.5, n_partitions=n_partitions
                ).pairs()
                want = similarity_rules_bruteforce(matrix, 0.5).pairs()
                assert got == want, (seed, n_partitions)

    def test_rule_statistics_are_global(self):
        matrix = random_binary_matrix(2)
        rules = find_similarity_rules_partitioned(
            matrix, 0.5, n_partitions=3
        )
        sets = matrix.column_sets()
        for rule in rules:
            assert rule.intersection == len(
                sets[rule.first] & sets[rule.second]
            )


def _die(args, observer=None):
    """A partition worker that dies without a word."""
    os._exit(3)


class TestProcessPool:
    """``n_workers > 1`` mines partitions on a spawn process pool."""

    @pytest.mark.timeout(180)
    def test_pool_matches_oracle(self):
        matrix = random_binary_matrix(5, max_rows=60, max_columns=12)
        for kwargs, oracle in (
            ({"minconf": 0.7}, implication_rules_bruteforce(matrix, 0.7)),
            ({"minsim": 0.4}, similarity_rules_bruteforce(matrix, 0.4)),
        ):
            result = repro.mine(
                matrix, engine="partitioned", n_partitions=3, n_workers=2,
                **kwargs,
            )
            assert len(oracle) > 0
            assert result.engine == "partitioned+vector"
            assert result.rules == oracle
            assert len(result.stats.partition_candidates) == 3

    @pytest.mark.timeout(180)
    def test_dead_worker_raises_instead_of_returning_partial_rules(
        self, monkeypatch
    ):
        import repro.core.partitioned as partitioned

        monkeypatch.setattr(partitioned, "_mine_chunk", _die)
        matrix = random_binary_matrix(4, max_rows=60, max_columns=12)
        with pytest.raises(BrokenProcessPool):
            find_implication_rules_partitioned(
                matrix, 0.7, n_partitions=3, n_workers=2
            )
