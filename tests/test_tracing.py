"""End-to-end tracing, request analytics, and profiler tests.

The exactness bar for traces mirrors the repo's mining bar: a span
tree recovered from the per-run archive must equal the in-memory
tracer's tree — including under scheduler retries, where failed
attempts appear *tagged*.  The Chrome-trace
exporter is checked against the Catapult JSON object format that
``chrome://tracing`` and Perfetto load directly.
"""

import json
import os
import re
import time
import urllib.error
import urllib.request
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
from repro.cli import main as cli_main
from repro.live.miner import LiveMiner
from repro.observe import (
    MetricsRegistry,
    RunJournal,
    SamplingProfiler,
    read_journal,
    route_label,
    summarize_journal,
    trace_to_chrome,
    write_chrome_trace,
)
from repro.observe.profiler import fold_stack
from repro.observe.server import MetricsServer
from repro.observe.tracer import Span, Tracer
from repro.service import JobSpec, MiningService, Scheduler
from repro.service.jobs import DONE, JobIndex

TRANSACTIONS = [
    ["a", "b"], ["a", "b"], ["a", "b"], ["a"], ["b", "c"], ["b", "c"],
]


def sample_tracer() -> Tracer:
    """A small forest with nesting, attributes, and a worker subtree."""
    tracer = Tracer(trace_id="req-0123abcd")
    with tracer.span("attempt", job_id="j1", attempt=1):
        with tracer.span("scan", rows=64):
            tracer.annotate(live_candidates=12)
        worker = Span(
            name="task",
            start_seconds=0.01,
            seconds=0.5,
            attributes={"worker_id": "3", "task_id": "part-0001"},
            children=[Span(name="scan", start_seconds=0.02, seconds=0.4)],
        )
        tracer.attach(worker)
    return tracer


def walk_dicts(spans):
    for span in spans:
        yield span
        for child in walk_dicts(span.get("children") or []):
            yield child


# ----------------------------------------------------------------------
# Tracer archive round trip
# ----------------------------------------------------------------------


class TestTracerRoundTrip:
    def test_from_dict_is_exact(self):
        document = sample_tracer().to_dict()
        assert Tracer.from_dict(document).to_dict() == document

    def test_trace_id_survives_the_round_trip(self):
        document = sample_tracer().to_dict()
        assert document["trace_id"] == "req-0123abcd"
        assert Tracer.from_dict(document).trace_id == "req-0123abcd"

    def test_without_trace_id_key_is_omitted(self):
        tracer = Tracer()
        with tracer.span("scan"):
            pass
        document = tracer.to_dict()
        assert "trace_id" not in document
        assert Tracer.from_dict(document).to_dict() == document

    def test_archive_accumulation_appends_attempts(self):
        """Seeding a tracer from an archive appends, never rewrites."""
        first = Tracer(trace_id="req-1")
        with first.span("attempt", attempt=1):
            pass
        resumed = Tracer.from_dict(first.to_dict())
        with resumed.span("attempt", attempt=2):
            pass
        names = [(s.name, s.attributes["attempt"]) for s in resumed.spans]
        assert names == [("attempt", 1), ("attempt", 2)]


# ----------------------------------------------------------------------
# Chrome-trace (Catapult) exporter conformance
# ----------------------------------------------------------------------


class TestChromeExport:
    def test_object_format_and_event_schema(self):
        chrome = trace_to_chrome(sample_tracer().to_dict())
        assert set(chrome) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert chrome["displayTimeUnit"] == "ms"
        assert isinstance(chrome["traceEvents"], list)
        json.dumps(chrome)  # must be plain-JSON serializable
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 4  # attempt, scan, task, worker scan
        for event in complete:
            assert set(event) >= {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args",
            }
            assert event["pid"] == 1
            assert event["ts"] >= 0 and event["dur"] >= 0
            # microseconds: the 0.5s worker task must read as 500000us
            assert isinstance(event["args"], dict)

    def test_metadata_names_process_and_every_track(self):
        chrome = trace_to_chrome(sample_tracer().to_dict(), "svc")
        metadata = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        process = [e for e in metadata if e["name"] == "process_name"]
        assert [e["args"]["name"] for e in process] == ["svc"]
        named_tids = {
            e["tid"] for e in metadata if e["name"] == "thread_name"
        }
        used_tids = {
            e["tid"] for e in chrome["traceEvents"] if e["ph"] == "X"
        }
        assert used_tids <= named_tids

    def test_trace_id_rides_every_event_and_other_data(self):
        chrome = trace_to_chrome(sample_tracer().to_dict())
        assert chrome["otherData"] == {"trace_id": "req-0123abcd"}
        for event in chrome["traceEvents"]:
            if event["ph"] == "X":
                assert event["args"]["trace_id"] == "req-0123abcd"

    def test_worker_subtree_stays_on_parent_track(self):
        """Archived traces may hold ``worker_id``-tagged subtrees from
        an older worker pool; they convert onto their parent's track."""
        chrome = trace_to_chrome(sample_tracer().to_dict())
        events = {
            e["name"]: e for e in chrome["traceEvents"] if e["ph"] == "X"
        }
        tracks = {
            e["args"]["name"]: e["tid"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert events["task"]["tid"] == events["attempt"]["tid"]
        assert events["task"]["args"]["worker_id"] == "3"
        assert "worker 3" not in tracks

    def test_durations_are_microseconds(self):
        tracer = Tracer()
        with tracer.span("scan"):
            pass
        tracer.spans[0].seconds = 0.25
        tracer.spans[0].start_seconds = 0.5
        (event,) = [
            e
            for e in trace_to_chrome(tracer.to_dict())["traceEvents"]
            if e["ph"] == "X"
        ]
        assert (event["ts"], event["dur"]) == (500000.0, 250000.0)

    def test_write_chrome_trace_accepts_all_three_shapes(self, tmp_path):
        tracer = sample_tracer()
        for label, document in (
            ("tracer", tracer),
            ("native", tracer.to_dict()),
            ("chrome", trace_to_chrome(tracer.to_dict())),
        ):
            path = str(tmp_path / f"{label}.json")
            write_chrome_trace(document, path)
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            assert "traceEvents" in loaded


# ----------------------------------------------------------------------
# RED metrics and the access log at the HTTP edge
# ----------------------------------------------------------------------


class TestRouteLabel:
    @pytest.mark.parametrize("path,label", [
        ("/", "/"),
        ("/metrics", "/metrics"),
        ("/healthz", "/healthz"),
        ("/jobs", "/jobs"),
        ("/jobs/j-42", "/jobs/<id>"),
        ("/jobs/j-42/result", "/jobs/<id>/result"),
        ("/jobs?tenant=alpha", "/jobs"),
        ("/runs/run-9/trace", "/runs/<id>/trace"),
        ("/runs/run-9/deltas", "/runs/<id>/deltas"),
        ("/favicon.ico", "<other>"),
        ("/etc/passwd", "<other>"),
    ])
    def test_bounded_patterns(self, path, label):
        assert route_label(path) == label


class TestRequestAnalytics:
    @pytest.fixture
    def server(self, tmp_path):
        journal = RunJournal(str(tmp_path / "access.jsonl"), "svc")
        server = MetricsServer(MetricsRegistry(), journal=journal)
        try:
            yield server
        finally:
            server.close()
            journal.close()

    def test_mints_request_id_when_absent(self, server):
        code, _, _, headers = server.dispatch_request(
            "GET", "/healthz", b"", {}
        )
        assert code == 200
        assert re.fullmatch(r"[0-9a-f]{16}", headers["X-Request-Id"])

    def test_echoes_incoming_request_id(self, server):
        _, _, _, headers = server.dispatch_request(
            "GET", "/metrics", b"", {"X-Request-Id": "req-caller-7"}
        )
        assert headers["X-Request-Id"] == "req-caller-7"

    def test_red_counter_and_duration_histogram(self, server):
        server.dispatch_request("GET", "/healthz", b"", {})
        text = server.registry.to_prometheus()
        assert (
            'dmc_http_requests_total{method="GET",route="/healthz"'
            ',status="200",tenant="-"} 1'
        ) in text
        assert 'dmc_http_request_seconds_count{route="/healthz"} 1' in text

    def test_access_log_event_per_request(self, server, tmp_path):
        server.dispatch_request(
            "GET", "/jobs/j1/result", b"", {"X-Request-Id": "req-77"}
        )
        server.journal.flush()
        records = [
            r
            for r in read_journal(str(tmp_path / "access.jsonl"))
            if r.get("event") == "http-request"
        ]
        assert len(records) == 1
        record = records[0]
        assert record["method"] == "GET"
        assert record["route"] == "/jobs/<id>/result"
        assert record["status"] == 404
        assert record["request_id"] == "req-77"
        assert record["tenant"] == "-"
        assert record["duration_ms"] >= 0

    def test_live_server_round_trip_carries_header(self, server):
        request = urllib.request.Request(
            server.url + "/healthz",
            headers={"X-Request-Id": "req-live-1"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "req-live-1"


# ----------------------------------------------------------------------
# The service end to end: one trace_id from edge to archive
# ----------------------------------------------------------------------


def http(method, url, body=None, headers=None):
    request = urllib.request.Request(
        url, method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers=dict(headers or {}),
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                json.loads(response.read() or b"null"),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            json.loads(error.read() or b"null"),
            dict(error.headers),
        )


def spec_doc(job_id, **extra):
    document = {
        "job_id": job_id,
        "task": "implication",
        "threshold": "3/4",
        "data": {"transactions": TRANSACTIONS},
    }
    document.update(extra)
    return document


class TestServiceTracing:
    @pytest.fixture
    def service(self, tmp_path):
        svc = MiningService(str(tmp_path / "state"), n_slots=0, serve=True)
        try:
            yield svc
        finally:
            svc.close()

    def test_request_id_becomes_the_run_trace_id(self, service):
        base = service.server.url
        code, _, _ = http(
            "POST", base + "/jobs", spec_doc("t1"),
            headers={"X-Request-Id": "req-edge-42"},
        )
        assert code == 201
        assert service.get_job("t1").spec.trace_id == "req-edge-42"
        service.run_until_idle()
        archive = service.read_trace("t1")
        assert archive["trace_id"] == "req-edge-42"
        attempts = [s for s in archive["spans"] if s["name"] == "attempt"]
        assert len(attempts) == 1
        assert attempts[0]["attributes"]["trace_id"] == "req-edge-42"
        # the engine's own phase spans nest under the attempt span
        assert attempts[0]["children"]

    def test_minted_id_used_when_no_header_sent(self, service):
        base = service.server.url
        _, _, headers = http("POST", base + "/jobs", spec_doc("t2"))
        minted = headers["X-Request-Id"]
        assert service.get_job("t2").spec.trace_id == minted

    def test_get_trace_returns_catapult_json(self, service):
        base = service.server.url
        http(
            "POST", base + "/jobs", spec_doc("t3"),
            headers={"X-Request-Id": "req-t3"},
        )
        service.run_until_idle()
        code, chrome, _ = http("GET", base + "/runs/t3/trace")
        assert code == 200
        assert chrome["displayTimeUnit"] == "ms"
        assert chrome["otherData"] == {"trace_id": "req-t3"}
        complete = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["args"]["trace_id"] == "req-t3"

    def test_trace_of_unknown_run_is_404(self, service):
        code, document, _ = http(
            "GET", service.server.url + "/runs/ghost/trace"
        )
        assert code == 404
        assert document["job_id"] == "ghost"

    def test_archive_equals_reconstructed_tree(self, service):
        base = service.server.url
        http("POST", base + "/jobs", spec_doc("t4"))
        service.run_until_idle()
        archive = service.read_trace("t4")
        expected = dict(archive)
        expected.pop("job_id", None)
        assert Tracer.from_dict(archive).to_dict() == expected


class TestSchedulerRetryArchive:
    def test_failed_attempts_archived_and_tagged(self, tmp_path):
        index = JobIndex(str(tmp_path))
        index.create(
            JobSpec.from_mapping(
                spec_doc("j1", max_attempts=3, trace_id="req-flaky")
            )
        )
        attempts = []

        def flaky(record, workdir, observer, **kwargs):
            attempts.append(record.attempts)
            # the attempt's engine work shows up under the attempt span
            with observer.tracer.span("scan", rows=6):
                pass
            if len(attempts) < 3:
                raise BrokenProcessPool("worker pool fell over")
            return '{"rules": []}', 0

        scheduler = Scheduler(
            index, n_slots=0, executor=flaky, retry_base_delay=0.0
        )
        scheduler.enqueue("j1")
        scheduler.run_until_idle()
        assert index.get("j1").state == DONE
        archive = index.read_trace("j1")
        assert archive["trace_id"] == "req-flaky"
        spans = [s for s in archive["spans"] if s["name"] == "attempt"]
        assert [s["attributes"]["attempt"] for s in spans] == [1, 2, 3]
        assert [
            bool(s["attributes"].get("failed")) for s in spans
        ] == [True, True, False]
        assert "BrokenProcessPool" in spans[0]["attributes"]["failed_reason"]
        for span in spans:  # every attempt kept its engine spans
            assert [c["name"] for c in span["children"]] == ["scan"]
        expected = dict(archive)
        expected.pop("job_id", None)
        assert Tracer.from_dict(archive).to_dict() == expected


class TestJobSpecTraceId:
    def test_round_trips_through_mappings(self):
        spec = JobSpec.from_mapping(spec_doc("j1", trace_id="req-9"))
        assert spec.trace_id == "req-9"
        assert JobSpec.from_mapping(spec.to_mapping()).trace_id == "req-9"

    def test_defaults_to_none(self):
        assert JobSpec.from_mapping(spec_doc("j1")).trace_id is None

    @pytest.mark.parametrize("bad", ["", "   ", 42, ["x"]])
    def test_rejects_non_string_or_blank(self, bad):
        with pytest.raises(ValueError):
            JobSpec.from_mapping(spec_doc("j1", trace_id=bad))


# ----------------------------------------------------------------------
# Live delta-apply spans
# ----------------------------------------------------------------------


class TestLiveDeltaSpans:
    def test_each_applied_batch_opens_a_tagged_span(self, tmp_path):
        tracer = Tracer(trace_id="req-live")
        miner = LiveMiner(
            str(tmp_path / "live"), "implication", "2/3", tracer=tracer
        )
        miner.submit(1, TRANSACTIONS[:3])
        miner.submit(2, TRANSACTIONS[3:])
        spans = [s for s in tracer.spans if s.name == "delta-apply"]
        assert [s.attributes["seq"] for s in spans] == [1, 2]
        for span in spans:
            assert span.attributes["trace_id"] == "req-live"
            assert span.attributes["n_rules"] >= 0
            assert "appeared" in span.attributes

    def test_recovery_opens_no_delta_apply_span(self, tmp_path):
        """Recovery mines the WAL once, outside the apply path: the only
        ``delta-apply`` span after a reopen is the new batch's."""
        root = str(tmp_path / "live")
        LiveMiner(root, "implication", "2/3").submit(1, TRANSACTIONS)
        tracer = Tracer(trace_id="req-re")
        miner = LiveMiner(root, "implication", "2/3", tracer=tracer)
        miner.submit(2, [["a", "c"]])
        spans = [s for s in tracer.spans if s.name == "delta-apply"]
        assert [s.attributes["seq"] for s in spans] == [2]
        assert "recovered" not in spans[0].attributes


# ----------------------------------------------------------------------
# Journal summaries: span table and delta totals
# ----------------------------------------------------------------------


class TestJournalSummaries:
    def test_span_table_folds_repeated_phases(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal(path, "r1")
        journal.emit("phase-start", name="scan")
        journal.emit("phase-end", name="scan", seconds=1.0)
        journal.emit("phase-start", name="scan")
        journal.emit("phase-end", name="scan", seconds=3.0)
        journal.emit("phase-start", name="spill")
        journal.emit("phase-end", name="spill", seconds=0.5)
        journal.close()
        summary = summarize_journal(path)
        table = {row["name"]: row for row in summary["span_table"]}
        assert table["scan"]["count"] == 2
        assert table["scan"]["total_seconds"] == pytest.approx(4.0)
        assert table["scan"]["mean_seconds"] == pytest.approx(2.0)
        assert table["scan"]["max_seconds"] == pytest.approx(3.0)
        assert table["spill"]["count"] == 1

    def test_delta_totals_fold_over_batches(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        journal = RunJournal(path, "r2")
        journal.emit(
            "delta-applied", seq=1, rows=10, appeared=3, disappeared=0,
            changed=3, n_rules=3, recovered=False,
        )
        journal.emit(
            "delta-applied", seq=2, rows=5, appeared=1, disappeared=2,
            changed=3, n_rules=2, recovered=True,
        )
        journal.close()
        deltas = summarize_journal(path)["deltas"]
        assert deltas == {
            "batches": 2, "rows": 15, "appeared": 4, "disappeared": 2,
            "changed": 6, "recovered": 1, "n_rules": 2, "last_seq": 2,
        }

    def test_delta_records_with_pair_state_keys_still_summarize(
        self, tmp_path
    ):
        """Journals written before batches became re-mines carry
        ``readmitted`` / ``replayed_rows`` / ``degraded`` on every
        ``delta-applied``; they fold like any other record."""
        path = str(tmp_path / "old-live.jsonl")
        journal = RunJournal(path, "r2")
        journal.emit(
            "delta-applied", seq=1, rows=10, appeared=3, disappeared=0,
            changed=3, n_rules=3, readmitted=0, replayed_rows=0,
            degraded=None, recovered=False,
        )
        journal.emit(
            "delta-applied", seq=2, rows=5, appeared=1, disappeared=2,
            changed=3, n_rules=2, readmitted=1, replayed_rows=4,
            degraded="replay-budget", recovered=False,
        )
        journal.close()
        deltas = summarize_journal(path)["deltas"]
        assert deltas["batches"] == 2
        assert deltas["rows"] == 15
        assert deltas["n_rules"] == 2
        assert not {"readmitted", "replayed_rows", "degraded"} & set(deltas)

    def test_batch_run_summary_has_no_deltas(self, tmp_path):
        path = str(tmp_path / "batch.jsonl")
        journal = RunJournal(path, "r3")
        journal.emit("phase-end", name="scan", seconds=1.0)
        journal.close()
        assert summarize_journal(path)["deltas"] is None


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------


def spin(seconds: float) -> int:
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSamplingProfiler:
    def test_folded_output_format(self, tmp_path):
        path = str(tmp_path / "run.folded")
        with SamplingProfiler(path, interval=0.001) as profiler:
            spin(0.3)
        assert profiler.samples > 0
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert all(":" in segment for segment in stack.split(";"))
        # the busy loop must dominate some sampled stack
        assert any("spin" in line for line in lines)

    def test_counts_accumulate_per_stack(self):
        profiler = SamplingProfiler(interval=0.001).start()
        spin(0.2)
        profiler.stop()
        assert profiler.samples == sum(profiler.counts.values())

    def test_empty_run_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.folded")
        profiler = SamplingProfiler(path, interval=5.0)
        profiler.start()
        profiler.stop()
        assert profiler.folded() == ""
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == ""

    def test_stop_is_idempotent(self, tmp_path):
        profiler = SamplingProfiler(str(tmp_path / "x.folded"))
        profiler.start()
        assert profiler.stop() == profiler.stop()

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_fold_stack_neutralizes_separator(self):
        import sys

        frame = sys._getframe()
        folded = fold_stack(frame)
        segments = folded.split(";")
        assert segments[-1].endswith(":test_fold_stack_neutralizes_separator")
        assert all(";" not in segment for segment in segments)

    def test_mine_profile_config_writes_folded_file(self, tmp_path):
        path = str(tmp_path / "mine.folded")
        result = repro.mine(
            TRANSACTIONS, task="implication", threshold="3/4",
            profile=path,
        )
        assert result.rules  # profiling must not perturb the mine
        assert os.path.exists(path)

    def test_blank_profile_path_rejected(self):
        with pytest.raises(ValueError):
            repro.MiningConfig(profile="   ")


# ----------------------------------------------------------------------
# The trace CLI
# ----------------------------------------------------------------------


class TestTraceCLI:
    def native_trace_file(self, tmp_path):
        path = str(tmp_path / "trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sample_tracer().to_dict(), handle)
        return path

    def test_export_to_stdout(self, tmp_path, capsys):
        path = self.native_trace_file(tmp_path)
        assert cli_main(["trace", "export", path]) == 0
        chrome = json.loads(capsys.readouterr().out)
        assert chrome["otherData"] == {"trace_id": "req-0123abcd"}
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_export_to_file(self, tmp_path, capsys):
        path = self.native_trace_file(tmp_path)
        out = str(tmp_path / "chrome.json")
        assert cli_main(["trace", "export", path, "--out", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            assert "traceEvents" in json.load(handle)

    def test_export_passes_chrome_documents_through(
        self, tmp_path, capsys
    ):
        chrome = trace_to_chrome(sample_tracer().to_dict())
        path = str(tmp_path / "chrome-in.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle)
        assert cli_main(["trace", "export", path]) == 0
        assert json.loads(capsys.readouterr().out) == chrome

    def test_summarize_prints_span_table(self, tmp_path, capsys):
        path = self.native_trace_file(tmp_path)
        assert cli_main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "trace req-0123abcd: 4 spans" in out
        assert "attempt" in out and "task" in out

    def test_summarize_counts_failed_attempt_spans(
        self, tmp_path, capsys
    ):
        tracer = Tracer(trace_id="req-f")
        with tracer.span("attempt", failed=True, failed_reason="timeout"):
            pass
        with tracer.span("attempt"):
            pass
        path = str(tmp_path / "failed.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_dict(), handle)
        assert cli_main(["trace", "summarize", path]) == 0
        assert "(1 on failed attempts)" in capsys.readouterr().out

    def test_summarize_rejects_chrome_documents(self, tmp_path, capsys):
        chrome = trace_to_chrome(sample_tracer().to_dict())
        path = str(tmp_path / "chrome.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle)
        assert cli_main(["trace", "summarize", path]) == 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert cli_main(
            ["trace", "export", str(tmp_path / "nope.json")]
        ) == 1
