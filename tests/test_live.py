"""Live telemetry: the /metrics endpoint and the pruning curve.

The acceptance spine of the observability layer:

- ``/metrics`` answers mid-run with valid Prometheus text and the
  server shuts down cleanly on completion and on SIGTERM;
- ``PipelineStats.pruning_curve`` is populated for both rule kinds,
  non-increasing in live candidates once seeding ends, and its final
  point matches the end-of-run aggregates.
"""

import json
import signal
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import mine
from repro.matrix.binary_matrix import BinaryMatrix
from repro.observe import (
    LiveRunStatus,
    MetricsRegistry,
    MetricsServer,
    ProgressObserver,
    RunObserver,
)
from repro.observe.server import PROMETHEUS_CONTENT_TYPE
from tests.conftest import random_binary_matrix


def _matrix(seed: int = 7, rows: int = 80, cols: int = 16) -> BinaryMatrix:
    generator = np.random.default_rng(seed)
    dense = (generator.random((rows, cols)) < 0.3).astype(np.uint8)
    return BinaryMatrix.from_dense(dense)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


# ----------------------------------------------------------------------
# LiveRunStatus
# ----------------------------------------------------------------------


class TestLiveRunStatus:
    def test_snapshot_reflects_engine_writes(self):
        status = LiveRunStatus("run-7")
        status.set_phase("<100%-rules")
        status.on_rows(42)
        status.live_candidates = 9
        status.rules_emitted = 3
        snapshot = status.snapshot()
        assert snapshot["run_id"] == "run-7"
        assert snapshot["phase"] == "<100%-rules"
        assert snapshot["rows_scanned"] == 42
        assert snapshot["live_candidates"] == 9
        assert snapshot["rules_emitted"] == 3
        assert snapshot["finished"] is False
        json.dumps(snapshot)  # the /runs/<id> body must be JSON-ready

    def test_finish_records_failure(self):
        status = LiveRunStatus("run-7")
        status.finish(failed="KeyboardInterrupt: boom")
        assert status.finished
        assert status.failed == "KeyboardInterrupt: boom"


# ----------------------------------------------------------------------
# The HTTP endpoint
# ----------------------------------------------------------------------


class TestMetricsServer:
    def test_metrics_route_serves_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("dmc_rows_scanned_total", "Rows.").inc(5)
        with MetricsServer(registry) as server:
            code, headers, body = _get(server.url + "/metrics")
        assert code == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE dmc_rows_scanned_total counter" in text
        assert "dmc_rows_scanned_total 5" in text

    def test_healthz_route_reports_run_liveness(self):
        status = LiveRunStatus("run-9")
        status.set_phase("partition-mining")
        with MetricsServer(MetricsRegistry(), status=status) as server:
            code, headers, body = _get(server.url + "/healthz")
        assert code == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["phase"] == "partition-mining"

    def test_healthz_without_status_is_plain_ok(self):
        with MetricsServer(MetricsRegistry()) as server:
            code, _, body = _get(server.url + "/healthz")
        assert code == 200
        assert json.loads(body) == {"status": "ok", "run": None}

    def test_runs_route_serves_the_snapshot_or_404(self):
        status = LiveRunStatus("run-17")
        with MetricsServer(MetricsRegistry(), status=status) as server:
            code, _, body = _get(server.url + "/runs/run-17")
            assert code == 200
            assert json.loads(body)["run_id"] == "run-17"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/runs/other-run")
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["error"] == (
                "unknown run"
            )

    def test_unknown_route_is_404(self):
        with MetricsServer(MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_close_is_idempotent_and_releases_the_port(self):
        server = MetricsServer(MetricsRegistry())
        host, port = server.host, server.port
        server.close()
        server.close()  # idempotent
        assert server.closed
        with pytest.raises(OSError):
            connection = socket.create_connection((host, port), timeout=1)
            connection.close()


# ----------------------------------------------------------------------
# Mid-run scraping and shutdown through repro.mine()
# ----------------------------------------------------------------------


class _MidRunScraper(ProgressObserver):
    """Scrapes the run's own endpoint from inside a progress callback."""

    def __init__(self) -> None:
        self.observer = None  # set after the RunObserver wraps us
        self.scrapes = []

    def on_curve_sample(self, *args, **kwargs) -> None:
        if self.scrapes or self.observer is None:
            return
        server = getattr(self.observer, "server", None)
        if server is None:
            return
        self.scrapes.append(
            (
                _get(server.url + "/metrics"),
                _get(server.url + "/healthz"),
                _get(server.url + f"/runs/{self.observer.run_id}"),
            )
        )


class TestServedRuns:
    def test_mid_run_scrape_and_clean_shutdown_on_completion(self):
        matrix = _matrix(rows=300, cols=14)
        scraper = _MidRunScraper()
        observer = RunObserver(progress=scraper)
        scraper.observer = observer
        result = mine(
            matrix, minconf=0.25, observer=observer, serve_metrics_port=0,
        )
        assert result.rules
        assert scraper.scrapes, "no mid-run scrape happened"
        (metrics, healthz, run_doc), = scraper.scrapes
        code, headers, body = metrics
        assert code == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE dmc_live_candidates gauge" in text
        code, _, body = healthz
        assert code == 200
        assert json.loads(body)["finished"] is False
        code, _, body = run_doc
        assert json.loads(body)["run_id"] == result.run_id
        # Completion closed the server and released the port.
        server = observer.server
        assert server.closed
        with pytest.raises(OSError):
            connection = socket.create_connection(
                (server.host, server.port), timeout=1
            )
            connection.close()

    def test_sigterm_unwinds_cleanly(self, tmp_path):
        """SIGTERM mid-run closes the server and journals the failure."""
        matrix = _matrix(rows=300, cols=14)
        journal_path = str(tmp_path / "run.jsonl")

        class Terminator(ProgressObserver):
            fired = False

            def on_curve_sample(self, *args, **kwargs) -> None:
                if not self.fired:
                    Terminator.fired = True
                    signal.raise_signal(signal.SIGTERM)

        observer = RunObserver(progress=Terminator())
        with pytest.raises(KeyboardInterrupt):
            mine(
                matrix, minconf=0.7, observer=observer,
                serve_metrics_port=0, journal_path=journal_path,
            )
        assert observer.server.closed
        assert observer.status.finished
        assert "KeyboardInterrupt" in observer.status.failed
        from repro.observe import read_journal

        records = list(read_journal(journal_path))
        assert records[-1]["event"] == "run-end"
        assert "KeyboardInterrupt" in records[-1]["failed"]


# ----------------------------------------------------------------------
# Cross-process aggregation under faults (the acceptance test)
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# The pruning curve (Algorithm 3.1's candidate-decay story)
# ----------------------------------------------------------------------


class TestPruningCurve:
    @pytest.mark.parametrize("kwargs", [
        {"minconf": 0.7}, {"minsim": 0.4},
    ])
    def test_curve_is_populated_and_self_consistent(self, kwargs):
        matrix = random_binary_matrix(13, max_rows=250, max_columns=12)
        result = mine(matrix, **kwargs)
        curve = result.stats.pruning_curve
        assert curve, "pruning curve is empty"
        scan = result.stats.partial_scan
        rows = [point[0] for point in curve]
        live = [point[1] for point in curve]
        misses = [point[2] for point in curve]
        rules = [point[3] for point in curve]
        assert rows == sorted(rows)
        # Live candidates grow while lists are still being seeded, then
        # pruning only shrinks them: non-increasing from the peak on.
        peak = live.index(max(live))
        assert live[peak:] == sorted(live[peak:], reverse=True)
        assert misses == sorted(misses)
        assert rules == sorted(rules)
        # The final point is the end-of-run aggregate state.
        assert rows[-1] == scan.rows_scanned
        assert misses[-1] == scan.misses_recorded
        assert rules[-1] == scan.rules_emitted

    def test_curve_appears_in_the_metrics_registry(self):
        matrix = random_binary_matrix(13, max_rows=250, max_columns=12)
        observer = RunObserver()
        result = mine(matrix, minconf=0.7, observer=observer)
        value = observer.metrics.value(
            "dmc_live_candidates", scan="<100%-rules"
        )
        assert value is not None
        # The gauge holds the curve's final live-candidate count.
        assert value == result.stats.pruning_curve[-1][1]
