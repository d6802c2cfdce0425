"""The repro.mine() facade and MiningConfig."""

import pytest

import repro
from repro.api import MiningConfig, MiningResult, mine
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import BitmapConfig
from repro.core.partitioned import (
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.core.stats import PipelineStats
from repro.datasets.registry import load_dataset
from repro.matrix.stream import (
    MatrixSource,
    stream_implication_rules,
    stream_similarity_rules,
)
from repro.mining.export import rules_to_json


@pytest.fixture(scope="module")
def matrix():
    return load_dataset("News", scale=0.1, seed=5)


class TestConfig:
    def test_requires_a_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            MiningConfig(task="implication")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            MiningConfig(task="clustering", threshold=0.9)

    def test_minconf_and_minsim_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            mine(load_dataset("News", scale=0.05), minconf=0.9, minsim=0.8)

    def test_alias_contradicting_task(self, matrix):
        with pytest.raises(TypeError, match="contradicts"):
            mine(matrix, task="similarity", minconf=0.9)

    def test_config_object_with_overrides(self, matrix):
        config = MiningConfig(task="implication", threshold=0.95)
        result = mine(matrix, config=config, minconf=0.9)
        assert result.rules.pairs() == find_implication_rules(
            matrix, 0.9
        ).pairs()


class TestEquivalence:
    """mine() must reproduce every legacy entry point exactly."""

    def test_matches_find_implication_rules(self, matrix):
        result = mine(matrix, minconf=0.9)
        legacy = find_implication_rules(matrix, 0.9)
        assert result.engine == "vector"
        assert rules_to_json(result.rules) == rules_to_json(legacy)

    def test_matches_find_similarity_rules(self, matrix):
        result = mine(matrix, minsim=0.6)
        legacy = find_similarity_rules(matrix, 0.6)
        assert result.engine == "vector"
        assert rules_to_json(result.rules) == rules_to_json(legacy)

    def test_matches_partitioned_implication(self, matrix):
        result = mine(matrix, minconf=0.9, engine="partitioned", n_partitions=3)
        legacy = find_implication_rules_partitioned(
            matrix, 0.9, n_partitions=3
        )
        assert result.engine == "partitioned+vector"
        assert rules_to_json(result.rules) == rules_to_json(legacy)
        assert len(result.stats.partition_candidates) == 3

    def test_matches_partitioned_similarity(self, matrix):
        result = mine(matrix, minsim=0.6, engine="partitioned")
        legacy = find_similarity_rules_partitioned(matrix, 0.6)
        assert result.engine == "partitioned+vector"
        assert rules_to_json(result.rules) == rules_to_json(legacy)

    def test_matches_stream_implication(self, matrix):
        result = mine(MatrixSource(matrix), minconf=0.9)
        legacy = stream_implication_rules(MatrixSource(matrix), 0.9)
        assert result.engine == "stream+vector"
        assert rules_to_json(result.rules) == rules_to_json(legacy)

    def test_matches_stream_similarity(self, matrix):
        result = mine(MatrixSource(matrix), minsim=0.6)
        legacy = stream_similarity_rules(MatrixSource(matrix), 0.6)
        assert result.engine == "stream+vector"
        assert rules_to_json(result.rules) == rules_to_json(legacy)

    def test_matches_memory_budget_wrapper(self, matrix):
        """``memory_budget=`` is the legacy entry point with the budget
        on its bitmap switch."""
        result = mine(matrix, minconf=0.9, memory_budget=64)
        stats = PipelineStats()
        legacy = find_implication_rules(
            matrix, 0.9, stats=stats,
            options=PruningOptions(
                bitmap=BitmapConfig(hard_budget_bytes=64)
            ),
        )
        assert stats.partial_scan.guard_tripped_at is not None
        assert result.engine == "vector"
        assert result.stats.partial_scan.guard_tripped_at is not None
        assert rules_to_json(result.rules) == rules_to_json(legacy)

    def test_file_path_input(self, matrix, tmp_path):
        from repro.matrix.binary_matrix import BinaryMatrix
        from repro.matrix.io import save_transactions

        # Streaming sources carry numeric ids only; drop the vocabulary.
        numeric = BinaryMatrix(
            [row for _, row in matrix.iter_rows()],
            n_columns=matrix.n_columns,
        )
        path = str(tmp_path / "data.txt")
        save_transactions(numeric, path)
        result = mine(path, minconf=0.9)
        assert result.engine == "stream+vector"
        assert result.rules.pairs() == find_implication_rules(
            matrix, 0.9
        ).pairs()

    def test_transactions_input(self):
        transactions = [["a", "b"], ["a", "b", "c"], ["c"], ["a", "b"]]
        result = mine(transactions, minconf=0.9)
        assert result.vocabulary is not None
        formatted = {
            rule.format(result.vocabulary) for rule in result.rules
        }
        assert any("a" in text for text in formatted)


class TestResult:
    def test_result_shape(self, matrix):
        observer = repro.RunObserver()
        result = mine(matrix, minconf=0.9, observer=observer)
        assert isinstance(result, MiningResult)
        assert len(result) == len(result.rules)
        assert list(iter(result)) == list(iter(result.rules))
        assert result.trace is not None
        assert result.trace["spans"]
        assert result.stats.columns_total == matrix.n_columns

    def test_no_observer_means_no_trace(self, matrix):
        result = mine(matrix, minconf=0.95)
        assert result.trace is None

    def test_observer_finish_folds_metrics(self, matrix):
        observer = repro.RunObserver()
        result = mine(matrix, minconf=0.9, observer=observer)
        assert observer.metrics.value("dmc_columns_total") == (
            matrix.n_columns
        )
        emitted_hundred = observer.metrics.value(
            "dmc_rules_emitted_total", scan="100%-rules"
        )
        emitted_partial = observer.metrics.value(
            "dmc_rules_emitted_total", scan="partial"
        )
        # The <100% scan may re-emit 100% rules the RuleSet dedupes, so
        # emissions bound the distinct rule count from above.
        assert emitted_hundred + emitted_partial >= len(result.rules)
        assert emitted_hundred == (
            result.stats.hundred_percent_scan.rules_emitted
        )
        assert emitted_partial == result.stats.partial_scan.rules_emitted

    def test_streaming_honours_memory_budget(self, matrix):
        result = mine(MatrixSource(matrix), minconf=0.9, memory_budget=64)
        baseline = mine(MatrixSource(matrix), minconf=0.9)
        assert result.engine == "stream+vector"
        assert result.stats.partial_scan.guard_tripped_at is not None
        assert rules_to_json(result.rules) == rules_to_json(baseline.rules)

    def test_partitioned_rejects_memory_budget(self, matrix):
        for kwargs in ({"engine": "partitioned"},
                       {"engine": "vector", "n_workers": 2}):
            with pytest.raises(ValueError, match="partitioned"):
                mine(matrix, minconf=0.9, memory_budget=1024, **kwargs)

    def test_unsupported_input_type(self):
        with pytest.raises(TypeError, match="expects"):
            mine(42, minconf=0.9)


class TestDeprecations:
    def test_candidate_log_kwarg_removed(self, matrix):
        with pytest.raises(TypeError, match="candidate_log"):
            find_implication_rules_partitioned(
                matrix, 0.9, n_partitions=2, candidate_log=[]
            )

    def test_partitioned_flag_removed(self, matrix):
        with pytest.raises(TypeError, match="partitioned"):
            mine(matrix, minconf=0.9, partitioned=True)

    def test_explicit_engine_does_not_warn(self, matrix):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = mine(matrix, minconf=0.9, engine="partitioned")
        assert result.engine == "partitioned+vector"
