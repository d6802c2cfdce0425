"""The vectorized second-pass engine (repro.core.vector) and the
engine= resolver (repro.api.resolve_engine).

Rule-set parity with the serial scan gates everything the vector
engine does, so the heart of this module is a seeded randomized
harness: random matrices x every policy family x awkward block sizes,
asserting byte-identical rule sets against the row-at-a-time engine.
"""

from fractions import Fraction

import pytest

import repro
from repro.api import ENGINES, MiningConfig, mine, resolve_engine
from repro.core import vector
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.partitioned import (
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.core.miss_counting import BitmapConfig, miss_counting_scan
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.stats import PipelineStats, ScanStats
from repro.core.vector import (
    DEFAULT_BLOCK_ROWS,
    vector_scan,
    vector_scan_rows,
)
from repro.datasets.registry import load_dataset
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.ops import RowBlocks
from repro.matrix.reorder import scan_order
from repro.matrix.stream import (
    MatrixSource,
    stream_implication_rules,
    stream_similarity_rules,
)
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
        """Odd-sized blocks over a row source: every block's hits are
        popcounted from its packed bitmaps; the rules must equal the
        serial scan's."""
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            policy = SimilarityPolicy(
                matrix.column_ones(), Fraction(1, 2)
            )
            want = miss_counting_scan(matrix, policy).pairs()
            rows = list(matrix.iter_rows())
            got = vector_scan_rows(
                RowBlocks(rows),
                len(rows),
                policy,
                block_rows=7,
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
         (4213, 2808, 2808, 0, 0, 1405, 10760, 0)),
        ("similarity", 64,
         (740, 615, 450, 165, 0, 125, 894, 3240)),
        ("similarity", 7,
         (705, 580, 259, 321, 0, 125, 399, 3440)),
    ])
    def test_pairs_over_budget_at_admission_count_as_swept(
        self, task, block_rows, want
    ):
        """A pair admitted already over its budget is never stored, but
        the counters read as if the boundary sweep had deleted it.  The
        implication scan admits exactly the serial scan's pairs, so its
        candidate counters equal ``miss_counting_scan``'s; a similarity
        scan also admits pairs the serial scan's dynamic check refuses
        at admission."""
        matrix = load_dataset("plinkT", scale=0.5)
        ones = matrix.column_ones()
        policy = (
            ImplicationPolicy(ones, "3/4") if task == "implication"
            else SimilarityPolicy(ones, "3/5")
        )
        fields = (
            "candidates_added", "candidates_deleted",
            "candidates_deleted_budget", "candidates_deleted_dynamic",
            "candidates_rejected", "rules_emitted", "misses_recorded",
            "peak_bytes",
        )
        stats, serial = ScanStats(), ScanStats()
        order = scan_order(matrix)
        vector_scan(
            matrix, policy, order=order, stats=stats, block_rows=block_rows,
        )
        miss_counting_scan(matrix, policy, order=order, stats=serial)
        got = tuple(getattr(stats, field) for field in fields)
        assert got == want
        assert stats.accounting_balanced()
        counters = [getattr(serial, field) for field in fields[:6]]
        if task == "implication":
            assert list(got[:6]) == counters
        else:
            assert got[0] >= counters[0]


class TestPipelineParity:
    """The full two-pass pipelines on the vector scan, in 7-row
    blocks."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BLOCK_ROWS", 7)

    def test_implication_with_ablations(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            for options in (
                PruningOptions(),
                PruningOptions(density_pruning=False),
                PruningOptions(max_hits_pruning=False),
                PruningOptions(hundred_percent_pass=False),
            ):
                want = find_implication_rules(
                    matrix, Fraction(3, 5), options=options
                ).pairs()
                got = mine(
                    matrix, minconf=Fraction(3, 5), engine="vector",
                    options=options,
                ).rules.pairs()
                assert got == want, seed

    def test_similarity(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            want = find_similarity_rules(matrix, Fraction(2, 5)).pairs()
            got = mine(
                matrix, minsim=Fraction(2, 5), engine="vector"
            ).rules.pairs()
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
        assert options == PruningOptions()

    def test_serial_scan_is_the_in_memory_carriers_alone(self):
        """engine='dmc' and the direct ``find_*`` calls run the paper's
        scan; the direct stream and partitioned entry points run the
        vector scan."""
        matrix = random_binary_matrix(3)
        plan, _ = self._resolve(engine="dmc", memory_budget=1024)
        assert plan.scan_engine == "serial"
        result = mine(matrix, minconf=0.6, engine="dmc")
        assert result.stats.scan_engine == "serial"
        for run, scan in (
            (lambda stats: find_implication_rules(
                matrix, 0.6, stats=stats), "serial"),
            (lambda stats: find_similarity_rules(
                matrix, 0.6, stats=stats), "serial"),
            (lambda stats: stream_implication_rules(
                MatrixSource(matrix), 0.6, stats=stats), "vector"),
            (lambda stats: stream_similarity_rules(
                MatrixSource(matrix), 0.6, stats=stats), "vector"),
            (lambda stats: find_implication_rules_partitioned(
                matrix, 0.6, stats=stats), "vector"),
            (lambda stats: find_similarity_rules_partitioned(
                matrix, 0.6, stats=stats), "vector"),
        ):
            stats = PipelineStats()
            run(stats)
            assert stats.scan_engine == scan

    @pytest.mark.parametrize("entry", [
        lambda matrix, **kw: stream_implication_rules(
            MatrixSource(matrix), 0.6, **kw),
        lambda matrix, **kw: stream_similarity_rules(
            MatrixSource(matrix), 0.6, **kw),
        lambda matrix, **kw: find_implication_rules_partitioned(
            matrix, 0.6, **kw),
        lambda matrix, **kw: find_similarity_rules_partitioned(
            matrix, 0.6, **kw),
    ], ids=[
        "stream_implication_rules", "stream_similarity_rules",
        "find_implication_rules_partitioned",
        "find_similarity_rules_partitioned",
    ])
    @pytest.mark.parametrize("scan", ["serial", "vector"])
    def test_scan_engine_is_retired(self, entry, scan):
        """The stream and partitioned carriers run only the vector
        scan, so their entry points take no scan choice."""
        with pytest.raises(TypeError, match="scan_engine"):
            entry(random_binary_matrix(0), scan_engine=scan)

    def test_auto_streaming_streams(self):
        plan, _ = self._resolve(streaming=True)
        assert (plan.name, plan.carrier) == ("stream+vector", "stream")

    def test_auto_memory_budget_is_guarded(self):
        for engine, name in (("auto", "vector"), ("vector", "vector"),
                             ("dmc", "dmc")):
            plan, options = self._resolve(engine=engine, memory_budget=1024)
            assert (plan.name, plan.carrier) == (name, "dmc")
            assert options.bitmap == BitmapConfig(hard_budget_bytes=1024)

    def test_explicit_dmc(self):
        plan, _ = self._resolve(engine="dmc")
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "dmc", "dmc", "serial",
        )

    def test_explicit_stream_wraps_matrix(self):
        plan, _ = self._resolve(engine="stream")
        assert (plan.name, plan.carrier) == ("stream+vector", "stream")

    def test_stream_plus_vector_scan(self):
        plan, _ = self._resolve(engine="stream")
        assert (plan.name, plan.scan_engine) == ("stream+vector", "vector")

    def test_explicit_partitioned(self):
        plan, _ = self._resolve(engine="partitioned")
        assert (plan.name, plan.carrier) == (
            "partitioned+vector", "partitioned",
        )

    def test_partitioned_plus_vector_scan(self):
        plan, _ = self._resolve(engine="partitioned")
        assert (plan.name, plan.scan_engine) == (
            "partitioned+vector", "vector",
        )

    def test_vector_defaults_block_rows(self):
        plan, options = self._resolve(engine="vector")
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "vector", "dmc", "vector",
        )
        # The block size is a constant of the kernel, not a plan field.
        assert options == PruningOptions()

    def test_vector_block_rows_override(self):
        with pytest.raises(TypeError, match="vector_block_rows"):
            mine(
                random_binary_matrix(0), minconf=0.9, engine="vector",
                vector_block_rows=256,
            )

    def test_vector_with_workers_partitions(self):
        plan, _ = self._resolve(engine="vector", n_workers=2)
        assert (plan.name, plan.carrier) == (
            "partitioned+vector", "partitioned",
        )

    def test_dmc_rejects_vector_scan_option(self):
        # engine= is the facade's only scan choice: the options cannot
        # carry one to contradict engine='dmc'.
        with pytest.raises(TypeError, match="scan_engine"):
            PruningOptions(scan_engine="vector")
        plan, _ = self._resolve(engine="dmc")
        assert plan.scan_engine == "serial"

    def test_streaming_rejects_in_memory_engines(self):
        for engine in ("dmc", "partitioned"):
            with pytest.raises(ValueError, match="in-memory"):
                self._resolve(engine=engine, streaming=True)

    def test_streaming_vector_error_has_hint(self):
        with pytest.raises(ValueError, match="engine='stream'"):
            self._resolve(engine="vector", streaming=True)

    def test_streaming_takes_memory_budget(self):
        plan, options = self._resolve(streaming=True, memory_budget=1024)
        assert (plan.name, plan.carrier) == ("stream+vector", "stream")
        assert options.bitmap.hard_budget_bytes == 1024

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MiningConfig(threshold=0.9, engine="gpu")

    def test_config_rejects_bad_block_rows(self):
        with pytest.raises(TypeError, match="vector_block_rows"):
            MiningConfig(threshold=0.9, vector_block_rows=0)

    def test_config_conflicts(self):
        # The partitioned carrier's scans take no budget.
        with pytest.raises(ValueError, match="partitioned"):
            MiningConfig(
                threshold=0.9, engine="partitioned", memory_budget=1024
            )
        with pytest.raises(ValueError, match="partitioned"):
            MiningConfig(
                threshold=0.9, engine="vector", n_workers=2,
                memory_budget=1024,
            )
        # The budget guards whichever single scan runs.
        for engine in ("auto", "dmc", "vector", "stream"):
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
        """The stats name the scan; the block size is the kernel's
        constant, so no document records it."""
        result = mine(matrix, minconf=0.7, engine="vector")
        assert result.stats.engine == "vector"
        assert result.stats.scan_engine == "vector"
        document = result.stats.to_dict()
        assert "vector_block_rows" not in document
        round_trip = repro.PipelineStats.from_dict(document)
        assert round_trip.engine == "vector"
        assert round_trip.scan_engine == "vector"

    def test_serial_stats_have_no_block_size(self, matrix):
        result = mine(matrix, minconf=0.7, engine="dmc")
        assert result.stats.engine == "dmc"
        assert result.stats.scan_engine == "serial"
        assert "vector_block_rows" not in result.stats.to_dict()

    def test_stats_from_older_documents_still_load(self, matrix):
        document = mine(matrix, minconf=0.7).stats.to_dict()
        del document["scan_engine"]
        document["vector_block_rows"] = 1024
        loaded = repro.PipelineStats.from_dict(document)
        assert loaded.engine == "vector"
        assert loaded.scan_engine is None
        assert loaded.to_dict()["rules_partial"] == document["rules_partial"]

    def test_partitioned_vector_carrier(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(
            matrix,
            minconf=0.7,
            engine="partitioned",
            n_partitions=3,
        )
        assert result.engine == "partitioned+vector"
        assert result.rules.pairs() == serial.rules.pairs()

    def test_stream_vector_carrier(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(matrix, minconf=0.7, engine="stream")
        assert result.engine == "stream+vector"
        assert result.rules.pairs() == serial.rules.pairs()

    def test_streaming_source_rejects_vector(self, matrix):
        with pytest.raises(ValueError, match="engine='stream'"):
            mine(MatrixSource(matrix), minconf=0.7, engine="vector")

    def test_journal_records_engine(self, matrix, tmp_path):
        path = str(tmp_path / "run.jsonl")
        mine(matrix, minconf=0.7, engine="vector", journal_path=path)
        summary = summarize_journal(path)
        assert summary["engine"] == "vector"
        assert "vector_block_rows" not in summary

    def test_live_status_reports_engine(self, matrix):
        status = LiveRunStatus("run-vec")
        observer = repro.RunObserver(status=status)
        mine(matrix, minconf=0.7, engine="vector", observer=observer)
        assert status.snapshot()["engine"] == "vector"
