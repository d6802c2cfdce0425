"""Two-pass streaming pipelines (repro.matrix.stream)."""

import os

import pytest

from repro.api import MiningConfig, mine, resolve_engine
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import BitmapConfig
from repro.core.stats import PipelineStats
from repro.datasets.registry import load_dataset
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import save_transactions
from repro.matrix.stream import (
    BucketSpill,
    FileSource,
    IterableSource,
    MatrixSource,
    TransactionSource,
    _stream_rules,
    stream_implication_rules,
    stream_similarity_rules,
)
from tests.conftest import random_binary_matrix, replayed_rows, spill_rows


class TestSources:
    def test_base_source_is_abstract(self):
        with pytest.raises(NotImplementedError):
            list(TransactionSource().iter_rows())

    def test_matrix_source_round_trip(self):
        matrix = BinaryMatrix([[0, 2], [1]], n_columns=3)
        source = MatrixSource(matrix)
        assert list(source.iter_rows()) == [(0, 2), (1,)]
        assert source.n_columns() == 3

    def test_iterable_source_normalizes_rows(self):
        source = IterableSource([[3, 1, 3], []], columns=5)
        assert list(source.iter_rows()) == [(1, 3), ()]
        assert source.n_columns() == 5

    def test_iterable_source_is_repeatable(self):
        source = IterableSource([[0], [1]])
        assert list(source.iter_rows()) == list(source.iter_rows())

    def test_file_source_reads_io_format(self, tmp_path):
        matrix = BinaryMatrix([[0, 3], [], [1]], n_columns=5)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        source = FileSource(path)
        rows = list(source.iter_rows())
        assert rows == [(0, 3), (), (1,)]
        assert source.n_columns() == 5  # from the #columns header


class TestBucketSpill:
    def test_rows_grouped_and_replayed_sparsest_first(self, tmp_path):
        with BucketSpill(directory=str(tmp_path)) as spill:
            spill_rows(spill, (0, 1, 2, 3))
            spill_rows(spill, (5,))
            spill_rows(spill, (1, 2))
            assert spill.rows_spilled == 3
            replayed = replayed_rows(spill)
        assert replayed == [(5,), (1, 2), (0, 1, 2, 3)]

    def test_empty_rows_not_spilled(self, tmp_path):
        with BucketSpill(directory=str(tmp_path)) as spill:
            spill_rows(spill, ())
            assert spill.rows_spilled == 0

    def test_bucket_count_is_logarithmic(self, tmp_path):
        with BucketSpill(directory=str(tmp_path)) as spill:
            spill_rows(spill, tuple(range(100)))
            spill_rows(spill, (0,))
            assert spill.n_buckets == 7  # bucket_index(100) == 6

    def test_files_removed_on_close(self, tmp_path):
        spill = BucketSpill(directory=str(tmp_path))
        spill_rows(spill, (1, 2))
        directory = spill._directory
        spill.close()
        assert not os.path.exists(directory)


class TestStreamingEquivalence:
    def test_implication_equals_in_memory(self):
        for seed in range(12):
            matrix = random_binary_matrix(seed)
            for threshold in (1.0, 0.8, 0.5):
                got = stream_implication_rules(
                    MatrixSource(matrix), threshold
                ).pairs()
                want = find_implication_rules(matrix, threshold).pairs()
                assert got == want, (seed, threshold)

    def test_similarity_equals_in_memory(self):
        for seed in range(12):
            matrix = random_binary_matrix(seed)
            for threshold in (1.0, 0.66):
                got = stream_similarity_rules(
                    MatrixSource(matrix), threshold
                ).pairs()
                want = find_similarity_rules(matrix, threshold).pairs()
                assert got == want, (seed, threshold)

    def test_from_file_source(self, tmp_path):
        matrix = random_binary_matrix(5)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        got = stream_implication_rules(FileSource(path), 0.75).pairs()
        want = find_implication_rules(matrix, 0.75).pairs()
        assert got == want

    def test_with_bitmap_switch(self):
        matrix = random_binary_matrix(9)
        config = BitmapConfig(switch_rows=5, memory_budget_bytes=0)
        got = stream_implication_rules(
            MatrixSource(matrix), 0.7, bitmap=config
        ).pairs()
        want = find_implication_rules(matrix, 0.7).pairs()
        assert got == want

    def test_spill_dir_honored_and_cleaned(self, tmp_path):
        matrix = random_binary_matrix(1)
        stream_implication_rules(
            MatrixSource(matrix), 0.9, spill_dir=str(tmp_path)
        )
        assert os.listdir(str(tmp_path)) == []

    def test_rules_carry_exact_statistics(self):
        matrix = random_binary_matrix(7)
        sets = matrix.column_sets()
        for rule in stream_implication_rules(MatrixSource(matrix), 0.6):
            assert rule.hits == len(
                sets[rule.antecedent] & sets[rule.consequent]
            )


class TestStreamEdgeCases:
    def test_zero_miss_scan_rows_direct(self):
        from repro.core.miss_counting import zero_miss_scan_rows
        from repro.core.policies import HundredPercentPolicy

        rows = [(0, (0, 1)), (1, (0, 1))]
        policy = HundredPercentPolicy([2, 2])
        rules = zero_miss_scan_rows(iter(rows), 2, policy)
        assert rules.pairs() == {(0, 1)}

    def test_file_source_rejects_labelled_files(self, tmp_path):
        from repro.matrix.binary_matrix import BinaryMatrix

        matrix = BinaryMatrix.from_transactions([["a", "b"]])
        path = str(tmp_path / "labelled.txt")
        save_transactions(matrix, path)
        with pytest.raises(ValueError):
            list(FileSource(path).iter_rows())

    def test_spill_close_is_idempotent(self, tmp_path):
        spill = BucketSpill(directory=str(tmp_path))
        spill_rows(spill, (0, 1))
        spill.close()
        spill.close()  # second close must not raise

    def test_empty_source_mines_nothing(self):
        rules = stream_implication_rules(IterableSource([]), 0.9)
        assert len(rules) == 0

    def test_source_with_only_empty_rows(self):
        rules = stream_implication_rules(
            IterableSource([[], []], columns=3), 0.9
        )
        assert len(rules) == 0

    def test_first_scan_grows_column_space(self):
        # Column ids beyond the declared universe extend the counts.
        source = IterableSource([[0], [7]], columns=2)
        rules = stream_implication_rules(source, 1)
        assert len(rules) == 0  # no co-occurrence, but no crash either


@pytest.fixture(scope="module")
def wlog():
    return load_dataset("Wlog", scale=0.25)


def _mine(matrix, engine, task="implication", threshold="3/5", **toggles):
    """Mine on ``"dmc"``, ``"vector"``, ``"stream"`` or
    ``"stream+vector"`` with the given ablation toggles; returns
    ``(rules, stats)``.  ``"stream+vector"`` goes through ``mine``,
    ``"stream"`` runs the stream pipeline directly."""
    options = PruningOptions(**toggles)
    if engine == "stream":
        stats = PipelineStats()
        rules = _stream_rules(
            MatrixSource(matrix), threshold, task, options, stats=stats,
        )
        assert stats.scan_engine == "vector"
        return rules, stats
    result = mine(
        matrix, task=task, threshold=threshold,
        engine=engine.partition("+")[0], options=options,
    )
    assert result.engine == engine
    return result.rules, result.stats


class TestStreamAblations:
    """The stream runs the one DMC phase sequence, so every ablation
    toggle reaches its pass 2."""

    def test_combined_pass(self, wlog):
        _, stream = _mine(wlog, "stream", hundred_percent_pass=False)
        _, dmc = _mine(wlog, "dmc", hundred_percent_pass=False)
        assert list(stream.timer.to_dict()) == ["pre-scan", "combined"]
        assert stream.hundred_percent_scan.rows_scanned == 0
        # One pass over every column: both carriers scan the same rows
        # in the same bucket order.
        assert (
            stream.partial_scan.candidates_added
            == dmc.partial_scan.candidates_added
        )

    def test_similarity_pruning_toggles(self, wlog):
        def added(**toggles):
            _, stats = _mine(wlog, "stream", task="similarity", **toggles)
            return stats.partial_scan.candidates_added

        pruned = added()
        assert added(density_pruning=False) > pruned
        assert added(max_hits_pruning=False) >= pruned
        assert added(density_pruning=False, max_hits_pruning=False) > pruned

    def test_rejects_row_reordering_off(self, wlog):
        options = PruningOptions(row_reordering=False)
        for streaming, engine in ((False, "stream"), (True, "auto")):
            config = MiningConfig(
                threshold=0.9, engine=engine, options=options
            )
            with pytest.raises(ValueError, match="row_reordering"):
                resolve_engine(config, streaming=streaming)
        with pytest.raises(ValueError, match="row_reordering"):
            mine(wlog, minconf=0.9, engine="stream", options=options)


@pytest.mark.parametrize("hundred_percent_pass", [True, False])
@pytest.mark.parametrize("threshold", ["1", "3/5"])
@pytest.mark.parametrize("task", ["implication", "similarity"])
def test_cross_carrier_parity(wlog, task, threshold, hundred_percent_pass):
    """Every carrier and scan engine mines the same rules through the
    same phases, splitting them the same way between the passes."""
    outcomes = {}
    for engine in ("dmc", "vector", "stream", "stream+vector"):
        rules, stats = _mine(
            wlog, engine, task=task, threshold=threshold,
            hundred_percent_pass=hundred_percent_pass,
        )
        outcomes[engine] = (
            rules.sorted(),
            stats.rules_hundred_percent,
            stats.rules_partial,
            stats.columns_removed,
            list(stats.timer.to_dict()),
        )
    rules, _, partial, removed, _ = outcomes["dmc"]
    assert rules
    if threshold != "1":
        assert partial and (removed or not hundred_percent_pass)
    for engine, outcome in outcomes.items():
        assert outcome == outcomes["dmc"], engine
