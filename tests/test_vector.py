"""The vectorized second-pass engine (repro.core.vector) and the
engine= resolver (repro.api.resolve_engine).

Rule-set parity with the serial scan gates everything the vector
engine does, so the heart of this module is a seeded randomized
harness: random matrices x every policy family x awkward block sizes,
asserting byte-identical rule sets against the row-at-a-time engine.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.api import ENGINES, MiningConfig, mine, resolve_engine
from repro.baselines.bruteforce import similarity_rules_bruteforce
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import BitmapConfig, miss_counting_scan
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.stats import ScanStats
from repro.core.vector import (
    DEFAULT_BLOCK_ROWS,
    vector_scan,
    vector_scan_rows,
)
from repro.datasets.registry import load_dataset
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.matrix.stream import MatrixSource
from repro.observe.journal import summarize_journal
from repro.observe.live import LiveRunStatus
from tests.conftest import random_binary_matrix

BLOCK_SIZES = (1, 7, 64)


def _policies(matrix):
    """One policy per family, with exact-Fraction thresholds that land
    on confidence/similarity boundary values for small matrices."""
    ones = matrix.column_ones()
    return [
        ImplicationPolicy(ones, Fraction(1, 2)),
        ImplicationPolicy(ones, Fraction(3, 4)),
        SimilarityPolicy(ones, Fraction(1, 3)),
        SimilarityPolicy(ones, Fraction(2, 3)),
        HundredPercentPolicy(ones),
        IdentityPolicy(ones),
    ]


class TestScanParity:
    """vector_scan must reproduce miss_counting_scan bit for bit."""

    def test_randomized_matrix_policy_block_sweep(self):
        for seed in range(8):
            matrix = random_binary_matrix(seed)
            for policy_index, policy in enumerate(_policies(matrix)):
                want = miss_counting_scan(matrix, policy).pairs()
                for block_rows in BLOCK_SIZES:
                    got = vector_scan(
                        matrix, policy, block_rows=block_rows
                    ).pairs()
                    assert got == want, (seed, policy_index, block_rows)

    def test_sparsest_first_order(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            order = scan_order(matrix)
            policy = ImplicationPolicy(
                matrix.column_ones(), Fraction(2, 3)
            )
            want = miss_counting_scan(matrix, policy, order=order).pairs()
            got = vector_scan(
                matrix, policy, order=order, block_rows=7
            ).pairs()
            assert got == want, seed

    def test_fraction_threshold_boundary(self):
        """A pair sitting exactly on the threshold must be kept by both
        engines (confidence >= minconf, with exact arithmetic)."""
        # c0 appears 4x, c0&c1 3x: conf(c0 -> c1) is exactly 3/4.
        rows = [[0, 1], [0, 1], [0, 1], [0], [1]]
        matrix = BinaryMatrix(rows, n_columns=2)
        for minconf in (Fraction(3, 4), Fraction(3, 4) + Fraction(1, 1000)):
            policy = ImplicationPolicy(matrix.column_ones(), minconf)
            want = miss_counting_scan(matrix, policy).pairs()
            got = vector_scan(matrix, policy, block_rows=2).pairs()
            assert got == want, minconf
        # Exactly at the boundary the rule exists; a hair above, not.
        at = ImplicationPolicy(matrix.column_ones(), Fraction(3, 4))
        assert vector_scan(matrix, at).pairs() == {(0, 1)}

    def test_popcount_kernel_path(self):
        """dense_pair_columns=0 forces the packed-bitmap fallback on
        every block; the rules must not change."""
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            policy = SimilarityPolicy(
                matrix.column_ones(), Fraction(1, 2)
            )
            want = miss_counting_scan(matrix, policy).pairs()
            rows = list(matrix.iter_rows())
            got = vector_scan_rows(
                iter(rows),
                len(rows),
                policy,
                block_rows=7,
                dense_pair_columns=0,
            ).pairs()
            assert got == want, seed

    def test_bitmap_handover(self):
        """The Section 4.4 switch hands live pairs to the bitmap tail
        mid-scan; parity must survive the handover."""
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            policy = ImplicationPolicy(
                matrix.column_ones(), Fraction(1, 2)
            )
            bitmap = BitmapConfig(switch_rows=1000, memory_budget_bytes=0)
            want = miss_counting_scan(
                matrix, policy, bitmap=bitmap
            ).pairs()
            got = vector_scan(
                matrix, policy, bitmap=bitmap, block_rows=7
            ).pairs()
            assert got == want, seed

    def test_stats_accounting_balanced(self):
        matrix = random_binary_matrix(3)
        stats = ScanStats()
        vector_scan(
            matrix,
            ImplicationPolicy(matrix.column_ones(), Fraction(1, 2)),
            stats=stats,
            block_rows=7,
        )
        assert stats.accounting_balanced()
        assert stats.rows_scanned > 0
        assert stats.pruning_curve  # sampled at block boundaries

    @pytest.mark.parametrize("task, block_rows, want", [
        ("implication", DEFAULT_BLOCK_ROWS,
         (35963, 34558, 34558, 0, 0, 1405, 153607, 0)),
        ("similarity", 64,
         (1273, 1148, 983, 165, 0, 125, 2564, 3240)),
        ("similarity", 7,
         (717, 592, 271, 321, 0, 125, 412, 3440)),
    ])
    def test_pairs_over_budget_at_admission_count_as_swept(
        self, task, block_rows, want
    ):
        """A pair admitted already over its budget is never stored, but
        the counters read as if the boundary sweep had deleted it: these
        are the values of the engine that stored it first."""
        matrix = load_dataset("plinkT", scale=0.5)
        ones = matrix.column_ones()
        policy = (
            ImplicationPolicy(ones, "3/4") if task == "implication"
            else SimilarityPolicy(ones, "3/5")
        )
        stats = ScanStats()
        vector_scan(
            matrix, policy, order=scan_order(matrix), stats=stats,
            block_rows=block_rows,
        )
        got = (
            stats.candidates_added, stats.candidates_deleted,
            stats.candidates_deleted_budget,
            stats.candidates_deleted_dynamic, stats.candidates_rejected,
            stats.rules_emitted, stats.misses_recorded, stats.peak_bytes,
        )
        assert got == want
        assert stats.accounting_balanced()

    def test_rejects_unknown_scan_engine(self):
        with pytest.raises(ValueError, match="scan_engine"):
            PruningOptions(scan_engine="simd")


class TestPipelineParity:
    """The full two-pass pipelines under scan_engine='vector'."""

    def test_implication_with_ablations(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            for options in (
                PruningOptions(),
                PruningOptions(density_pruning=False),
                PruningOptions(max_hits_pruning=False),
                PruningOptions(hundred_percent_pass=False),
            ):
                vector_options = replace(
                    options, scan_engine="vector", vector_block_rows=7
                )
                want = find_implication_rules(
                    matrix, Fraction(3, 5), options=options
                ).pairs()
                got = find_implication_rules(
                    matrix, Fraction(3, 5), options=vector_options
                ).pairs()
                assert got == want, seed

    def test_similarity(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            want = find_similarity_rules(matrix, Fraction(2, 5)).pairs()
            got = find_similarity_rules(
                matrix,
                Fraction(2, 5),
                options=PruningOptions(
                    scan_engine="vector", vector_block_rows=7
                ),
            ).pairs()
            assert got == want, seed


class TestResolver:
    """resolve_engine: one unit test per engine value and conflict."""

    @staticmethod
    def _resolve(streaming=False, **kwargs):
        kwargs.setdefault("threshold", 0.9)
        return resolve_engine(MiningConfig(**kwargs), streaming=streaming)

    def test_engine_names_are_documented(self):
        assert ENGINES == ("auto", "dmc", "stream", "partitioned", "vector")

    def test_auto_in_memory_is_vector(self):
        plan, options = self._resolve()
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "vector", "dmc", "vector",
        )
        assert options.scan_engine == "vector"
        assert options.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_explicit_serial_scan_keeps_every_carrier_serial(self):
        serial = PruningOptions(scan_engine="serial")
        for kwargs, name in (
            ({}, "dmc"),
            ({"streaming": True}, "stream"),
            ({"engine": "stream"}, "stream"),
            ({"engine": "partitioned"}, "partitioned"),
            ({"memory_budget": 1024}, "dmc"),
        ):
            plan, options = self._resolve(options=serial, **kwargs)
            assert (plan.name, plan.scan_engine) == (name, "serial")
            assert options.vector_block_rows is None

    def test_auto_streaming_streams(self):
        plan, _ = self._resolve(streaming=True)
        assert (plan.name, plan.carrier) == ("stream+vector", "stream")

    def test_auto_memory_budget_is_guarded(self):
        for engine, name in (("auto", "vector"), ("vector", "vector"),
                             ("dmc", "dmc")):
            plan, options = self._resolve(engine=engine, memory_budget=1024)
            assert (plan.name, plan.carrier) == (name, "dmc")
            assert options.memory_guard.budget_bytes == 1024

    def test_explicit_dmc(self):
        plan, _ = self._resolve(engine="dmc")
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "dmc", "dmc", "serial",
        )

    def test_explicit_stream_wraps_matrix(self):
        plan, _ = self._resolve(engine="stream")
        assert (plan.name, plan.carrier) == ("stream+vector", "stream")

    def test_stream_plus_vector_scan(self):
        plan, options = self._resolve(
            engine="stream",
            options=PruningOptions(scan_engine="vector"),
        )
        assert plan.name == "stream+vector"
        assert options.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_explicit_partitioned(self):
        plan, _ = self._resolve(engine="partitioned")
        assert (plan.name, plan.carrier) == (
            "partitioned+vector", "partitioned",
        )

    def test_partitioned_plus_vector_scan(self):
        plan, _ = self._resolve(
            engine="partitioned",
            options=PruningOptions(scan_engine="vector"),
        )
        assert plan.name == "partitioned+vector"

    def test_vector_defaults_block_rows(self):
        plan, options = self._resolve(engine="vector")
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "vector", "dmc", "vector",
        )
        assert options.scan_engine == "vector"
        assert options.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_vector_block_rows_override(self):
        _, options = self._resolve(engine="vector", vector_block_rows=256)
        assert options.vector_block_rows == 256

    def test_vector_with_workers_partitions(self):
        plan, _ = self._resolve(engine="vector", n_workers=2)
        assert (plan.name, plan.carrier) == (
            "partitioned+vector", "partitioned",
        )

    def test_dmc_rejects_vector_scan_option(self):
        with pytest.raises(ValueError, match="engine='vector'"):
            self._resolve(
                engine="dmc",
                options=PruningOptions(scan_engine="vector"),
            )

    def test_streaming_rejects_in_memory_engines(self):
        for engine in ("dmc", "partitioned"):
            with pytest.raises(ValueError, match="in-memory"):
                self._resolve(engine=engine, streaming=True)

    def test_streaming_vector_error_has_hint(self):
        with pytest.raises(ValueError, match="engine='stream'"):
            self._resolve(engine="vector", streaming=True)

    def test_streaming_rejects_partition_requests(self):
        with pytest.raises(ValueError, match="in-memory"):
            self._resolve(streaming=True, memory_budget=1024)

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MiningConfig(threshold=0.9, engine="gpu")

    def test_config_rejects_bad_block_rows(self):
        with pytest.raises(ValueError, match="vector_block_rows"):
            MiningConfig(threshold=0.9, vector_block_rows=0)

    def test_config_conflicts(self):
        with pytest.raises(ValueError):
            MiningConfig(threshold=0.9, engine="stream", memory_budget=1024)
        # The budget guards whichever in-memory scan runs.
        for engine in ("dmc", "vector"):
            MiningConfig(threshold=0.9, engine=engine, memory_budget=1024)


class TestMineVector:
    """engine='vector' end to end through the facade."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return random_binary_matrix(5, max_rows=60, max_columns=20)

    def test_matches_serial_implication(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        vector = mine(matrix, minconf=0.7, engine="vector")
        assert vector.engine == "vector"
        assert vector.rules.pairs() == serial.rules.pairs()

    def test_matches_serial_similarity(self, matrix):
        serial = mine(matrix, minsim=0.4, engine="dmc")
        vector = mine(matrix, minsim=0.4, engine="vector")
        assert vector.rules.pairs() == serial.rules.pairs()

    def test_stats_record_engine_and_block_size(self, matrix):
        result = mine(
            matrix, minconf=0.7, engine="vector", vector_block_rows=64
        )
        assert result.stats.engine == "vector"
        assert result.stats.vector_block_rows == 64
        round_trip = repro.PipelineStats.from_dict(result.stats.to_dict())
        assert round_trip.engine == "vector"
        assert round_trip.vector_block_rows == 64

    def test_serial_stats_have_no_block_size(self, matrix):
        result = mine(matrix, minconf=0.7, engine="dmc")
        assert result.stats.engine == "dmc"
        assert result.stats.vector_block_rows is None

    def test_partitioned_vector_carrier(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(
            matrix,
            minconf=0.7,
            engine="partitioned",
            options=PruningOptions(scan_engine="vector"),
            n_partitions=3,
        )
        assert result.engine == "partitioned+vector"
        assert result.rules.pairs() == serial.rules.pairs()

    def test_stream_vector_carrier(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(
            matrix,
            minconf=0.7,
            engine="stream",
            options=PruningOptions(scan_engine="vector"),
        )
        assert result.engine == "stream+vector"
        assert result.rules.pairs() == serial.rules.pairs()

    def test_streaming_source_rejects_vector(self, matrix):
        with pytest.raises(ValueError, match="engine='stream'"):
            mine(MatrixSource(matrix), minconf=0.7, engine="vector")

    def test_journal_records_engine(self, matrix, tmp_path):
        path = str(tmp_path / "run.jsonl")
        mine(
            matrix,
            minconf=0.7,
            engine="vector",
            vector_block_rows=64,
            journal_path=path,
        )
        summary = summarize_journal(path)
        assert summary["engine"] == "vector"
        assert summary["vector_block_rows"] == 64

    def test_live_status_reports_engine(self, matrix):
        status = LiveRunStatus("run-vec")
        observer = repro.RunObserver(status=status)
        mine(matrix, minconf=0.7, engine="vector", observer=observer)
        assert status.snapshot()["engine"] == "vector"


class TestVectorFallback:
    """A threshold whose exact fractions overflow the vector engine's
    int64 twins: the default vector scan falls back to the serial one
    and says so on the result, while an explicit engine='vector'
    raises."""

    MINSIM = Fraction(10**20 + 1, 10**20 + 3)

    @pytest.fixture(scope="class")
    def matrix(self):
        dense = np.random.default_rng(11).random((60, 10)) < 0.3
        dense[:, 1] = dense[:, 0]
        dense[:, 3] = dense[:, 2]
        return BinaryMatrix.from_dense(dense.astype(np.uint8))

    @pytest.mark.parametrize("engine, ran", [
        ("auto", "dmc"),
        ("stream", "stream"),
        ("partitioned", "partitioned"),
    ])
    @pytest.mark.parametrize("hundred_percent_pass", [True, False])
    def test_default_falls_back_to_serial(
        self, matrix, engine, ran, hundred_percent_pass
    ):
        result = mine(
            matrix, minsim=self.MINSIM, engine=engine,
            options=PruningOptions(hundred_percent_pass=hundred_percent_pass),
        )
        assert result.engine == result.stats.engine == ran
        assert result.stats.vector_block_rows is None
        want = similarity_rules_bruteforce(matrix, self.MINSIM)
        assert len(want) > 0
        assert result.rules == want

    def test_exact_policies_stay_vector(self, matrix):
        result = mine(matrix, minconf=self.MINSIM)
        assert result.engine == "vector"
        assert result.stats.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_explicit_vector_engine_raises(self, matrix):
        with pytest.raises(ValueError, match="int64"):
            mine(matrix, minsim=self.MINSIM, engine="vector")
