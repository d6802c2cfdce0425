"""Prometheus text-exposition conformance and metrics thread safety.

The ``/metrics`` endpoint promises a document a stock Prometheus can
scrape, so the format details are pinned here: HELP/TYPE comment
lines, label escaping, the ``+Inf`` bucket, ``_sum``/``_count``
series, and cumulative bucket counts that never decrease.  The hammer
tests pin the thread-safety contract the live HTTP exporter relies on.
"""

import re
import threading

from repro.observe import MetricsRegistry

#: A metric sample line: name, optional {labels}, space, value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"
    r" -?[0-9].*$"
)


def _filled_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "dmc_rows_scanned_total", "Rows consumed by the scan.",
        scan="partial",
    ).inc(128)
    registry.gauge(
        "dmc_live_candidates", "Live candidates.", scan="partial",
    ).set(7)
    histogram = registry.histogram(
        "dmc_task_seconds", "Per-task latency.", buckets=(0.1, 1.0, 10.0),
    )
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    return registry


class TestExpositionFormat:
    def test_every_line_is_comment_or_sample(self):
        text = _filled_registry().to_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"

    def test_help_precedes_type_per_family(self):
        lines = _filled_registry().to_prometheus().splitlines()
        helps = {
            line.split()[2]: index
            for index, line in enumerate(lines)
            if line.startswith("# HELP")
        }
        types = {
            line.split()[2]: index
            for index, line in enumerate(lines)
            if line.startswith("# TYPE")
        }
        assert set(types) == {
            "dmc_rows_scanned_total", "dmc_live_candidates",
            "dmc_task_seconds",
        }
        for name, type_index in types.items():
            assert helps[name] == type_index - 1

    def test_type_line_kinds(self):
        text = _filled_registry().to_prometheus()
        assert "# TYPE dmc_rows_scanned_total counter" in text
        assert "# TYPE dmc_live_candidates gauge" in text
        assert "# TYPE dmc_task_seconds histogram" in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = _filled_registry().to_prometheus()
        buckets = re.findall(
            r'dmc_task_seconds_bucket\{le="([^"]+)"\} (\d+)', text
        )
        assert [le for le, _ in buckets] == ["0.1", "1", "10", "+Inf"]
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)  # cumulative: non-decreasing
        assert counts == [1, 3, 4, 5]
        assert "dmc_task_seconds_sum 56.05" in text
        assert "dmc_task_seconds_count 5" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "dmc_io_errors_total", "I/O errors.",
            kind='disk "full"\non\\dev',
        ).inc()
        text = registry.to_prometheus()
        assert (
            'dmc_io_errors_total{kind="disk \\"full\\"\\non\\\\dev"} 1'
            in text
        )
        for line in text.splitlines():
            assert "\n" not in line  # escaping keeps one sample per line

    def test_help_escaping(self):
        registry = MetricsRegistry()
        registry.counter("dmc_odd_total", "line one\nline two\\three").inc()
        text = registry.to_prometheus()
        assert "# HELP dmc_odd_total line one\\nline two\\\\three" in text
        assert len(text.rstrip("\n").splitlines()) == 3  # HELP, TYPE, sample

    def test_label_sets_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("dmc_x_total", "x", zeta="1", alpha="2").inc()
        text = registry.to_prometheus()
        assert 'dmc_x_total{alpha="2",zeta="1"} 1' in text

    def test_integer_values_render_without_fraction(self):
        registry = MetricsRegistry()
        registry.gauge("dmc_g", "g").set(3.0)
        assert "dmc_g 3\n" in registry.to_prometheus()


class TestThreadSafety:
    HAMMER_THREADS = 8
    HAMMER_ITERATIONS = 2_000

    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(self.HAMMER_ITERATIONS):
                registry.counter("dmc_hits_total", "hits").inc()
                registry.counter(
                    "dmc_hits_total", "hits", scan="partial"
                ).inc(2)

        threads = [
            threading.Thread(target=hammer)
            for _ in range(self.HAMMER_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = self.HAMMER_THREADS * self.HAMMER_ITERATIONS
        assert registry.value("dmc_hits_total") == total
        assert registry.value("dmc_hits_total", scan="partial") == 2 * total

    def test_concurrent_histogram_observations_are_exact(self):
        registry = MetricsRegistry()

        def hammer(worker: int):
            for index in range(self.HAMMER_ITERATIONS):
                registry.histogram(
                    "dmc_lat_seconds", "latency", buckets=(1.0, 10.0),
                ).observe(0.5 if index % 2 else 5.0)
                registry.gauge("dmc_peak", "peak").set_max(worker)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.HAMMER_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        histogram = registry.get("dmc_lat_seconds")
        total = self.HAMMER_THREADS * self.HAMMER_ITERATIONS
        assert histogram.count == total
        assert histogram.counts[0] == total // 2
        assert histogram.counts[1] == total
        assert registry.value("dmc_peak") == self.HAMMER_THREADS - 1

    def test_export_under_concurrent_mutation_is_consistent(self):
        """Exports taken mid-hammer parse and never tear a histogram.

        A torn read would show ``_count`` behind a bucket's cumulative
        count; holding the family lock during export forbids that.
        """
        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def mutate():
            while not stop.is_set():
                registry.counter("dmc_n_total", "n").inc()
                registry.histogram(
                    "dmc_h_seconds", "h", buckets=(1.0,)
                ).observe(0.5)

        def scrape():
            try:
                for _ in range(200):
                    text = registry.to_prometheus()
                    for line in text.rstrip("\n").splitlines():
                        if not line.startswith("#"):
                            assert SAMPLE_RE.match(line), line
                    inf = re.search(
                        r'dmc_h_seconds_bucket\{le="\+Inf"\} (\d+)', text
                    )
                    count = re.search(r"dmc_h_seconds_count (\d+)", text)
                    if inf and count:
                        assert int(inf.group(1)) == int(count.group(1))
                    registry.to_dict()
            except AssertionError as error:  # surface to the main thread
                errors.append(error)

        mutators = [threading.Thread(target=mutate) for _ in range(4)]
        scraper = threading.Thread(target=scrape)
        for thread in mutators:
            thread.start()
        scraper.start()
        scraper.join()
        stop.set()
        for thread in mutators:
            thread.join()
        assert not errors
