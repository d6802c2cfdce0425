"""The observability layer: tracer, metrics, observers, exporters."""

import json

import pytest

from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.miss_counting import BitmapConfig
from repro.baselines.bruteforce import implication_rules_bruteforce
from repro.datasets.registry import load_dataset
from repro.matrix.binary_matrix import BinaryMatrix
from repro.mining.export import rules_to_json
from repro.observe import (
    NULL_OBSERVER,
    ConsoleProgress,
    MetricsRegistry,
    NullObserver,
    ProgressObserver,
    RunObserver,
    Tracer,
    load_metrics,
    load_trace,
    metrics_format_for,
    write_metrics,
    write_trace,
)


SMALL = BinaryMatrix.from_dense(
    [
        [1, 1, 0, 1],
        [1, 1, 1, 0],
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 0],
        [1, 1, 1, 1],
    ]
)


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner-a"):
                tracer.annotate(rows=3)
            with tracer.span("inner-b"):
                pass
        with tracer.span("second"):
            pass

        assert [span.name for span in tracer.spans] == ["outer", "second"]
        outer = tracer.spans[0]
        assert [child.name for child in outer.children] == [
            "inner-a", "inner-b",
        ]
        assert outer.attributes == {"kind": "test"}
        assert outer.children[0].attributes == {"rows": 3}
        assert outer.children[0].children == []

    def test_span_timing_is_monotone(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, = tracer.spans
        inner, = outer.children
        assert outer.seconds >= inner.seconds >= 0
        assert inner.start_seconds >= outer.start_seconds

    def test_depth_and_current(self):
        tracer = Tracer()
        assert tracer.depth == 0 and tracer.current() is None
        with tracer.span("a"):
            assert tracer.depth == 1
            assert tracer.current().name == "a"
            with tracer.span("b"):
                assert tracer.depth == 2
        assert tracer.depth == 0

    def test_annotate_outside_any_span_is_a_noop(self):
        tracer = Tracer()
        tracer.annotate(lost=True)
        assert tracer.spans == []

    def test_to_dict_round_trips_through_json(self):
        tracer = Tracer()
        with tracer.span("phase", rows=10):
            pass
        document = json.loads(tracer.to_json())
        assert document["version"] == 1
        assert document["spans"][0]["name"] == "phase"
        assert document["spans"][0]["attributes"] == {"rows": 10}

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.depth == 0
        assert tracer.spans[0].seconds >= 0


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("dmc_events_total", "Events.", kind="x")
        counter.inc()
        counter.inc(2)
        assert registry.value("dmc_events_total", kind="x") == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

        gauge = registry.gauge("dmc_level", "Level.")
        gauge.set(5)
        gauge.set_max(3)
        assert registry.value("dmc_level") == 5

        histogram = registry.histogram(
            "dmc_sizes", "Sizes.", buckets=(1, 10)
        )
        for value in (0.5, 5, 50):
            histogram.observe(value)
        assert histogram.cumulative() == [
            (1.0, 1), (10.0, 2), (float("inf"), 3),
        ]

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("dmc_thing", "A counter.")
        with pytest.raises(ValueError):
            registry.gauge("dmc_thing", "Now a gauge?")

    def test_prometheus_golden_output(self):
        registry = MetricsRegistry()
        registry.counter(
            "dmc_rules_emitted_total", "Rules emitted by the scan.",
            scan="partial",
        ).inc(7)
        registry.counter(
            "dmc_rules_emitted_total", "Rules emitted by the scan.",
            scan="100%-rules",
        ).inc(3)
        registry.gauge("dmc_columns_total", "Columns.").set(42)
        registry.histogram(
            "dmc_row_entries", "Entries per row.", buckets=(1, 10)
        ).observe(4)

        expected = "\n".join(
            [
                '# HELP dmc_columns_total Columns.',
                '# TYPE dmc_columns_total gauge',
                'dmc_columns_total 42',
                '# HELP dmc_row_entries Entries per row.',
                '# TYPE dmc_row_entries histogram',
                'dmc_row_entries_bucket{le="1"} 0',
                'dmc_row_entries_bucket{le="10"} 1',
                'dmc_row_entries_bucket{le="+Inf"} 1',
                'dmc_row_entries_sum 4',
                'dmc_row_entries_count 1',
                '# HELP dmc_rules_emitted_total Rules emitted by the scan.',
                '# TYPE dmc_rules_emitted_total counter',
                'dmc_rules_emitted_total{scan="100%-rules"} 3',
                'dmc_rules_emitted_total{scan="partial"} 7',
                '',
            ]
        )
        assert registry.to_prometheus() == expected

    def test_json_export_is_stable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("dmc_b_total", "B.").inc()
        registry.counter("dmc_a_total", "A.").inc()
        document = registry.to_dict()
        names = [family["name"] for family in document["metrics"]]
        assert names == sorted(names)
        assert json.loads(registry.to_json()) == document


class TestCounterExactness:
    """Engine counters must balance and agree with brute force."""

    @pytest.mark.parametrize("minconf", [1, 0.9, 0.75, 0.5])
    def test_accounting_identity_small_matrix(self, minconf):
        stats_holder = []
        from repro.core.stats import PipelineStats

        stats = PipelineStats()
        rules = find_implication_rules(SMALL, minconf, stats=stats)
        stats_holder.append(stats)
        for scan in (stats.hundred_percent_scan, stats.partial_scan):
            assert scan.accounting_balanced(), vars(scan)
            assert scan.candidates_deleted == (
                scan.candidates_deleted_budget
                + scan.candidates_deleted_dynamic
            )
        emitted = (
            stats.hundred_percent_scan.rules_emitted
            + stats.partial_scan.rules_emitted
        )
        # The <100% scan may re-emit rules the RuleSet dedupes.
        assert emitted >= len(rules)
        assert rules.pairs() == implication_rules_bruteforce(
            SMALL, minconf
        ).pairs()

    def test_accounting_survives_the_bitmap_switch(self):
        from repro.core.stats import PipelineStats

        options = PruningOptions(
            bitmap=BitmapConfig(switch_rows=10_000, memory_budget_bytes=1)
        )
        stats = PipelineStats()
        rules = find_implication_rules(
            SMALL, 0.75, options=options, stats=stats
        )
        assert stats.partial_scan.bitmap_switch_at is not None
        for scan in (stats.hundred_percent_scan, stats.partial_scan):
            assert scan.accounting_balanced(), vars(scan)
        assert rules.pairs() == implication_rules_bruteforce(
            SMALL, 0.75
        ).pairs()

    def test_metrics_match_stats_exactly(self):
        from repro.core.stats import PipelineStats

        observer = RunObserver()
        stats = PipelineStats()
        find_implication_rules(SMALL, 0.75, stats=stats, observer=observer)
        observer.finish(stats=stats)
        registry = observer.metrics
        for scan_label, scan in (
            ("100%-rules", stats.hundred_percent_scan),
            ("partial", stats.partial_scan),
        ):
            assert registry.value(
                "dmc_candidates_added_total", scan=scan_label
            ) == scan.candidates_added
            assert registry.value(
                "dmc_candidates_deleted_total",
                scan=scan_label, cause="budget",
            ) == scan.candidates_deleted_budget
            assert registry.value(
                "dmc_candidates_deleted_total",
                scan=scan_label, cause="dynamic",
            ) == scan.candidates_deleted_dynamic
            assert registry.value(
                "dmc_rules_emitted_total", scan=scan_label
            ) == scan.rules_emitted
        assert registry.value("dmc_columns_total") == SMALL.n_columns


class TestObservers:
    def test_null_observer_is_disabled(self):
        assert NULL_OBSERVER.enabled is False
        assert isinstance(NULL_OBSERVER, NullObserver)
        with NULL_OBSERVER.phase("anything"):
            pass
        with NULL_OBSERVER.span("anything", attr=1):
            pass
        NULL_OBSERVER.finish()

    def test_null_observer_leaves_rules_byte_identical(self):
        plain = find_implication_rules(SMALL, 0.75)
        with_null = find_implication_rules(
            SMALL, 0.75, observer=NullObserver()
        )
        with_run = find_implication_rules(
            SMALL, 0.75, observer=RunObserver()
        )
        assert (
            rules_to_json(plain)
            == rules_to_json(with_null)
            == rules_to_json(with_run)
        )

    def test_run_observer_records_phase_spans(self):
        observer = RunObserver()
        find_implication_rules(SMALL, 0.75, observer=observer)
        names = [span.name for span in observer.tracer.spans]
        assert names == ["pre-scan", "100%-rules", "<100%-rules"]
        assert observer.tracer.depth == 0

    @pytest.mark.parametrize("engine", ["dmc", "vector", "stream"])
    def test_breakdown_equals_the_traced_phase_spans(self, engine):
        """One clock per phase: the stats breakdown and the trace read
        the same seconds, to the bit."""
        import repro

        observer = RunObserver()
        result = repro.mine(
            load_dataset("News", scale=0.1, seed=3), minconf=0.9,
            engine=engine, observer=observer,
        )
        spans = {span.name: span.seconds for span in observer.tracer.spans}
        assert list(spans) == ["pre-scan", "100%-rules", "<100%-rules"]
        assert result.stats.breakdown() == spans
        assert result.stats.total_seconds == sum(spans.values())

    def test_run_observer_nests_the_bitmap_tail(self):
        observer = RunObserver()
        options = PruningOptions(
            bitmap=BitmapConfig(switch_rows=10_000, memory_budget_bytes=1)
        )
        find_implication_rules(
            SMALL, 0.75, options=options, observer=observer
        )
        by_name = {span.name: span for span in observer.tracer.spans}
        tail_parents = [
            span
            for span in by_name.values()
            for child in span.children
            if child.name == "bitmap-tail"
        ]
        assert tail_parents, "no phase recorded a bitmap-tail child span"
        tail = [
            child
            for span in tail_parents
            for child in span.children
            if child.name == "bitmap-tail"
        ][0]
        assert {c.name for c in tail.children} == {
            "bitmap-phase1", "bitmap-phase2",
        }
        assert tail.attributes["rows_remaining"] > 0

    def test_console_progress_reports(self, capsys):
        import sys

        observer = ConsoleProgress(stream=sys.stderr, every=1)
        find_implication_rules(SMALL, 0.75, observer=observer)
        err = capsys.readouterr().err
        assert "phase pre-scan" in err
        assert "row " in err

    def test_console_progress_rejects_bad_every(self):
        with pytest.raises(ValueError):
            ConsoleProgress(every=0)

    def test_progress_observer_base_hooks_are_noops(self):
        observer = ProgressObserver()
        observer.on_row(0, 10, 1, 8, "scan")
        observer.on_bitmap_switch(1, "scan")
        observer.on_guard_trip(2, "scan")
        observer.on_bucket("bucket-00.txt", 4)
        observer.on_retry("spill.open")
        observer.finish()

    def test_candidates_alive_band_gauges(self):
        observer = RunObserver(bands=4)
        find_implication_rules(SMALL, 0.75, observer=observer)
        band_values = [
            observer.metrics.value(
                "dmc_candidates_alive_band", scan="<100%-rules",
                band=str(band),
            )
            for band in range(4)
        ]
        assert any(value is not None for value in band_values)


class TestExporters:
    def test_metrics_format_resolution(self):
        assert metrics_format_for("run.json") == "json"
        assert metrics_format_for("run.prom") == "prometheus"
        assert metrics_format_for("run.txt") == "prometheus"
        assert metrics_format_for("run.json", fmt="prometheus") == (
            "prometheus"
        )
        with pytest.raises(ValueError):
            metrics_format_for("x", fmt="xml")

    def test_write_and_load_round_trip(self, tmp_path):
        observer = RunObserver()
        find_implication_rules(SMALL, 0.75, observer=observer)
        observer.finish()

        metrics_path = str(tmp_path / "metrics.json")
        assert write_metrics(observer.metrics, metrics_path) == "json"
        loaded = load_metrics(metrics_path)
        assert loaded == observer.metrics.to_dict()

        prom_path = str(tmp_path / "metrics.prom")
        assert write_metrics(observer.metrics, prom_path) == "prometheus"
        with open(prom_path, encoding="utf-8") as handle:
            assert handle.read() == observer.metrics.to_prometheus()

        trace_path = str(tmp_path / "trace.json")
        write_trace(observer.tracer, trace_path)
        assert load_trace(trace_path) == observer.tracer.to_dict()


class TestStreamingObservation:
    def test_stream_pipeline_reports_buckets_and_phases(self):
        from repro.matrix.stream import (
            MatrixSource,
            stream_implication_rules,
        )

        matrix = load_dataset("News", scale=0.1, seed=3)
        observer = RunObserver()
        rules = stream_implication_rules(
            MatrixSource(matrix), 0.9, observer=observer
        )
        baseline = find_implication_rules(matrix, 0.9)
        assert rules.pairs() == baseline.pairs()
        names = [span.name for span in observer.tracer.spans]
        assert names == ["pre-scan", "100%-rules", "<100%-rules"]
        replayed = observer.metrics.value("dmc_buckets_replayed_total")
        assert replayed is not None and replayed > 0

    def test_memory_budget_trip_is_observed(self):
        import repro

        matrix = load_dataset("News", scale=0.1, seed=3)
        observer = RunObserver()
        result = repro.mine(
            matrix, minconf=0.9, memory_budget=64, observer=observer
        )
        baseline = find_implication_rules(matrix, 0.9)
        assert result.rules.pairs() == baseline.pairs()
        names = [span.name for span in observer.tracer.spans]
        assert names == ["pre-scan", "100%-rules", "<100%-rules"]
        assert observer.metrics.value("dmc_guard_budget_bytes") == 64
        assert result.stats.partial_scan.guard_tripped_at is not None
        assert observer.metrics.value(
            "dmc_guard_trips_total", scan="partial"
        ) >= 1

    def test_switch_and_trip_metrics_have_one_series_per_scan(self):
        """The end-of-run fold is the only writer of the per-scan switch
        row and trip count, labelled ``100%-rules`` / ``partial``."""
        import repro

        observer = RunObserver()
        result = repro.mine(
            load_dataset("News", scale=0.1, seed=3), minconf=0.9,
            engine="dmc", memory_budget=64, observer=observer,
        )
        scans = {
            "100%-rules": result.stats.hundred_percent_scan,
            "partial": result.stats.partial_scan,
        }
        tripped = [
            label for label, scan in scans.items()
            if scan.guard_tripped_at is not None
        ]
        assert tripped == ["100%-rules", "partial"]
        families = {
            family["name"]: family
            for family in observer.metrics.to_dict()["metrics"]
        }

        def series(name):
            return sorted(
                instance["labels"]["scan"]
                for instance in families[name]["instances"]
            )

        assert series("dmc_guard_trips_total") == sorted(tripped)
        assert series("dmc_bitmap_switch_row") == sorted(scans)
        trips = sum(
            observer.metrics.value("dmc_guard_trips_total", scan=label)
            for label in tripped
        )
        assert trips == len(tripped)
        for label, scan in scans.items():
            assert observer.metrics.value(
                "dmc_bitmap_switch_row", scan=label
            ) == scan.bitmap_switch_at
