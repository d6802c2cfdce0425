"""Mining-as-a-service tests: specs, quotas, scheduler, HTTP API, and
the crash-point sweep over the durable job index.

The exactness bar is the same as everywhere else in this repo: a
``kill -9`` at *any* enumerated storage operation, followed by a
restart, must lose no job, duplicate no result, and produce rule sets
identical to an uninterrupted run (the engines are deterministic and
the result commit is first-writer-wins, so recovery is exact, not
best-effort).  The subprocess chaos suites (real ``SIGKILL``/
``SIGTERM`` against ``python -m repro serve``) are marked ``slow``.
"""

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
from repro.cli import build_parser
from repro.mining.export import rules_to_json
from repro.runtime.crashpoints import enumerate_crash_points
from repro.runtime.storage import FaultyStorage, StorageFull
from repro.service import (
    AdmissionError,
    JobSpec,
    MiningService,
    QuotaPolicy,
    Scheduler,
    TenantQuota,
)
from repro.service.jobs import (
    CANCELLED, DONE, FAILED, QUEUED, RUNNING, JobDataError, JobIndex,
)
from repro.service.scheduler import transient_failure

# Small deterministic data: a->b holds at 3/4, b->a at 3/5.
TRANSACTIONS = [
    ["a", "b"], ["a", "b"], ["a", "b"], ["a"], ["b", "c"], ["b", "c"],
]

SIM_TRANSACTIONS = [
    ["x", "y"], ["x", "y"], ["x", "y"], ["x"], ["y", "z"],
]


def spec_doc(job_id, transactions=None, **extra):
    document = {
        "job_id": job_id,
        "task": "implication",
        "threshold": "3/4",
        "data": {
            "transactions": (
                TRANSACTIONS if transactions is None else transactions
            )
        },
    }
    document.update(extra)
    return document


def canonical_rules(result_text):
    """The rules of a result document, canonicalized for comparison
    (stats and timings are run-dependent; rules must not be)."""
    return json.dumps(json.loads(result_text)["rules"], sort_keys=True)


def direct_oracle(transactions, task="implication", threshold="3/4"):
    """The rule set of an uninterrupted direct mine() on `transactions`."""
    result = repro.mine(
        repro.BinaryMatrix.from_transactions(transactions),
        task=task, threshold=threshold,
    )
    return canonical_rules(
        rules_to_json(result.rules, vocabulary=result.vocabulary)
    )


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec.from_mapping(spec_doc("j1", tenant="acme"))
        again = JobSpec.from_mapping(spec.to_mapping())
        assert again == spec
        assert again.tenant == "acme"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown job-spec keys"):
            JobSpec.from_mapping(spec_doc("j1", frobnicate=1))

    @pytest.mark.parametrize("key", ["task_timeout", "task_retries"])
    def test_retired_pool_keys_rejected_at_submit(self, key):
        with pytest.raises(ValueError, match="unknown job-spec keys"):
            JobSpec.from_mapping(spec_doc("j1", **{key: 2}))

    def test_missing_required_key(self):
        document = spec_doc("j1")
        del document["threshold"]
        with pytest.raises(ValueError, match="missing 'threshold'"):
            JobSpec.from_mapping(document)

    def test_exactly_one_data_source(self):
        document = spec_doc("j1")
        document["data"]["path"] = "also.txt"
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec.from_mapping(document)
        document["data"] = {}
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec.from_mapping(document)

    @pytest.mark.parametrize(
        "bad_id", ["a/b", "../up", ".hidden", ""],
    )
    def test_unsafe_job_id_rejected(self, bad_id):
        with pytest.raises(ValueError, match="job_id"):
            JobSpec.from_mapping(spec_doc(bad_id))

    def test_generated_job_id_when_absent(self):
        document = spec_doc("x")
        del document["job_id"]
        spec = JobSpec.from_mapping(document)
        assert spec.job_id.startswith("job-")

    def test_config_contradiction_caught_at_parse(self):
        with pytest.raises(ValueError, match="engine"):
            JobSpec.from_mapping(spec_doc("j1", engine="warp-drive"))

    def test_rows_estimate_inline(self):
        spec = JobSpec.from_mapping(spec_doc("j1"))
        assert spec.rows_estimate() == len(TRANSACTIONS)

    def test_rows_estimate_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 2\n2 3\n1 3\n")
        spec = JobSpec.from_mapping(
            {"job_id": "j1", "task": "implication", "threshold": "3/4",
             "data": {"path": str(path)}}
        )
        assert spec.rows_estimate() == 3

    def test_rows_estimate_dataset_unknowable(self):
        spec = JobSpec.from_mapping(
            {"job_id": "j1", "task": "implication", "threshold": "3/4",
             "data": {"dataset": "NewsP", "scale": 0.05}}
        )
        assert spec.rows_estimate() is None

    def test_load_data_missing_file_is_permanent(self):
        spec = JobSpec.from_mapping(
            {"job_id": "j1", "task": "implication", "threshold": "3/4",
             "data": {"path": "/nonexistent/nowhere.txt"}}
        )
        with pytest.raises(JobDataError):
            spec.load_data()
        assert not transient_failure(JobDataError("x"))

    def test_memory_budget_rides_only_on_auto(self):
        auto = JobSpec.from_mapping(spec_doc("j1", memory_budget=1 << 20))
        assert auto.mining_kwargs(None)["memory_budget"] == 1 << 20
        vec = JobSpec.from_mapping(
            spec_doc("j2", engine="vector", memory_budget=1 << 20)
        )
        assert "memory_budget" not in vec.mining_kwargs(None)
        plain = JobSpec.from_mapping(spec_doc("j3"))
        assert (
            plain.mining_kwargs(None, default_memory_budget=4096)[
                "memory_budget"
            ]
            == 4096
        )

    def test_stream_engine_binds_workdir(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("1 2\n2 3\n")
        spec = JobSpec.from_mapping(
            {"job_id": "j1", "task": "implication", "threshold": "3/4",
             "data": {"path": str(data)}, "engine": "stream"}
        )
        kwargs = spec.mining_kwargs(str(tmp_path / "work"))
        assert kwargs["checkpoint_dir"].startswith(str(tmp_path / "work"))
        assert kwargs["spill_dir"].startswith(str(tmp_path / "work"))
        assert "checkpoint_dir" not in spec.mining_kwargs(None)


# ----------------------------------------------------------------------
# JobIndex
# ----------------------------------------------------------------------


class TestJobIndex:
    def test_transitions_are_durable(self, tmp_path):
        index = JobIndex(str(tmp_path))
        spec = JobSpec.from_mapping(spec_doc("j1"))
        index.create(spec)
        index.transition("j1", RUNNING, attempts=1)
        # A second index over the same directory is "the next process".
        reborn = JobIndex(str(tmp_path))
        report = reborn.recover()
        assert report.requeued == ["j1"]
        assert reborn.get("j1").state == QUEUED
        assert reborn.get("j1").attempts == 1

    def test_create_is_idempotent(self, tmp_path):
        index = JobIndex(str(tmp_path))
        spec = JobSpec.from_mapping(spec_doc("j1"))
        first = index.create(spec)
        second = index.create(spec)
        assert second is first

    def test_result_commit_first_writer_wins(self, tmp_path):
        index = JobIndex(str(tmp_path))
        assert index.commit_result("j1", '{"winner": 1}') is True
        assert index.commit_result("j1", '{"late": 2}') is False
        assert json.loads(index.read_result("j1")) == {"winner": 1}

    def test_recover_promotes_running_with_result(self, tmp_path):
        index = JobIndex(str(tmp_path))
        index.create(JobSpec.from_mapping(spec_doc("j1")))
        index.transition("j1", RUNNING, attempts=1)
        index.commit_result("j1", '{"rules": []}')
        reborn = JobIndex(str(tmp_path))
        report = reborn.recover()
        assert report.completed == ["j1"]
        assert reborn.get("j1").state == DONE

    def test_recover_keeps_terminal_states(self, tmp_path):
        index = JobIndex(str(tmp_path))
        for job_id, state in (("a", DONE), ("b", FAILED), ("c", CANCELLED)):
            index.create(JobSpec.from_mapping(spec_doc(job_id)))
            index.transition(job_id, state)
        reborn = JobIndex(str(tmp_path))
        report = reborn.recover()
        assert sorted(report.terminal) == ["a", "b", "c"]
        assert reborn.get("b").state == FAILED

    def test_records_from_older_servers_reload_in_their_state(
        self, tmp_path
    ):
        """Older servers wrote ``task_retries`` (and ``task_timeout``
        when set) into every persisted spec; those jobs must survive
        an upgrade, not be skipped as corrupt."""
        os.makedirs(tmp_path / "jobs")
        for job_id, state, extra in (
            ("old-queued", QUEUED, {}),
            ("old-running", RUNNING, {"task_timeout": 5.0}),
            ("old-done", DONE, {}),
        ):
            spec = {
                "job_id": job_id, "tenant": "default",
                "task": "implication", "threshold": "3/4",
                "data": {"transactions": TRANSACTIONS},
                "engine": "partitioned", "n_partitions": 2,
                "max_attempts": 3, "task_retries": 2, "kind": "batch",
                "n_workers": 2, **extra,
            }
            record = {
                "version": 1, "job_id": job_id, "tenant": "default",
                "state": state, "attempts": 1, "created_at": 1.0,
                "updated_at": 2.0, "error": None, "rules": None,
                "history": [[state, 2.0, "written by an older server"]],
                "spec": spec,
            }
            (tmp_path / "jobs" / f"{job_id}.json").write_text(
                json.dumps(record)
            )
        index = JobIndex(str(tmp_path))
        report = index.recover()
        assert report.corrupt == []
        assert report.queued == ["old-queued"]
        assert report.requeued == ["old-running"]
        assert report.terminal == ["old-done"]
        assert index.get("old-queued").state == QUEUED
        assert index.get("old-running").state == QUEUED
        assert index.get("old-done").state == DONE
        reloaded = index.get("old-running")
        assert reloaded.attempts == 1
        assert reloaded.spec.n_workers == 2
        assert "task_retries" not in reloaded.spec.to_mapping()

    def test_records_with_a_block_size_reload_in_their_state(
        self, tmp_path
    ):
        """Older servers persisted ``vector_block_rows`` when a client
        set it; the block size is now a constant, and the job reloads
        without it."""
        os.makedirs(tmp_path / "jobs")
        spec = spec_doc(
            "old-vector", engine="vector", vector_block_rows=256,
            tenant="default", n_partitions=4, max_attempts=3,
            kind="batch",
        )
        record = {
            "version": 1, "job_id": "old-vector", "tenant": "default",
            "state": QUEUED, "attempts": 0, "created_at": 1.0,
            "updated_at": 2.0, "error": None, "rules": None,
            "history": [[QUEUED, 2.0, "written by an older server"]],
            "spec": spec,
        }
        (tmp_path / "jobs" / "old-vector.json").write_text(
            json.dumps(record)
        )
        index = JobIndex(str(tmp_path))
        report = index.recover()
        assert report.corrupt == []
        assert report.queued == ["old-vector"]
        reloaded = index.get("old-vector")
        assert reloaded.state == QUEUED
        assert reloaded.spec.engine == "vector"
        assert "vector_block_rows" not in reloaded.spec.to_mapping()
        assert "vector_block_rows" not in reloaded.spec.mining_kwargs(None)

    @pytest.mark.parametrize("engine", ["auto", "dmc", "stream"])
    def test_records_with_ignored_workers_reload_in_process(
        self, tmp_path, engine
    ):
        """Older servers accepted ``n_workers > 1`` beside an engine
        without a worker pool and mined on one process; a submit now
        refuses that, and a stored job reloads without the count and
        still mines in process."""
        os.makedirs(tmp_path / "jobs")
        spec = spec_doc(
            "old-workers", engine=engine, n_workers=2, tenant="default",
            n_partitions=4, max_attempts=3, kind="batch",
        )
        record = {
            "version": 1, "job_id": "old-workers", "tenant": "default",
            "state": QUEUED, "attempts": 0, "created_at": 1.0,
            "updated_at": 2.0, "error": None, "rules": None,
            "history": [[QUEUED, 2.0, "written by an older server"]],
            "spec": spec,
        }
        (tmp_path / "jobs" / "old-workers.json").write_text(
            json.dumps(record)
        )
        index = JobIndex(str(tmp_path))
        report = index.recover()
        assert report.corrupt == []
        assert report.queued == ["old-workers"]
        reloaded = index.get("old-workers")
        assert reloaded.spec.engine == engine
        assert reloaded.spec.n_workers is None
        assert "n_workers" not in reloaded.spec.mining_kwargs(None)

    def test_recover_skips_corrupt_file(self, tmp_path):
        index = JobIndex(str(tmp_path))
        index.create(JobSpec.from_mapping(spec_doc("good")))
        (tmp_path / "jobs" / "bad.json").write_text("{not json")
        reborn = JobIndex(str(tmp_path))
        report = reborn.recover()
        assert report.corrupt == ["bad.json"]
        assert reborn.get("good") is not None


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------


class TestQuotas:
    def test_max_queued(self):
        policy = QuotaPolicy(default=TenantQuota(max_queued=2))
        policy.admit("t", queued=1, rows=None)
        with pytest.raises(AdmissionError) as excinfo:
            policy.admit("t", queued=2, rows=None)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None

    def test_max_rows_is_structural(self):
        policy = QuotaPolicy(default=TenantQuota(max_rows=10))
        with pytest.raises(AdmissionError) as excinfo:
            policy.admit("t", queued=0, rows=11)
        assert excinfo.value.retry_after is None
        assert excinfo.value.kind == "rows"
        policy.admit("t", queued=0, rows=None)  # unknowable size admitted

    def test_per_tenant_override(self):
        policy = QuotaPolicy(
            default=TenantQuota(max_queued=1),
            per_tenant={"vip": TenantQuota(max_queued=100)},
        )
        policy.admit("vip", queued=50, rows=None)
        with pytest.raises(AdmissionError):
            policy.admit("pleb", queued=1, rows=None)

    def test_may_start(self):
        policy = QuotaPolicy(default=TenantQuota(max_concurrent=2))
        assert policy.may_start("t", running=1)
        assert not policy.may_start("t", running=2)


# ----------------------------------------------------------------------
# Scheduler (synchronous mode, stub executors)
# ----------------------------------------------------------------------


def make_index(tmp_path, *job_ids, **spec_extra):
    index = JobIndex(str(tmp_path))
    for job_id in job_ids:
        index.create(JobSpec.from_mapping(spec_doc(job_id, **spec_extra)))
    return index


class TestScheduler:
    def test_failure_classification(self):
        # A dead pool worker and curable I/O errors are transient...
        assert transient_failure(BrokenProcessPool("worker died"))
        assert transient_failure(OSError(errno.EIO, "I/O error"))
        assert transient_failure(OSError(errno.EAGAIN, "try again"))
        # ...terminal storage faults are not: a retry cannot free disk.
        assert not transient_failure(OSError(errno.ENOSPC, "disk full"))
        assert not transient_failure(OSError(errno.EROFS, "read-only"))
        assert not transient_failure(StorageFull(errno.ENOSPC, "full"))
        # ...and neither are bad data or engine bugs.
        assert not transient_failure(JobDataError("no such file"))
        assert not transient_failure(ValueError("bad threshold"))

    def test_success_commits_result(self, tmp_path):
        index = make_index(tmp_path, "j1")

        def ok_executor(record, workdir, observer, **kwargs):
            return '{"rules": [1]}', 1

        scheduler = Scheduler(index, n_slots=0, executor=ok_executor)
        scheduler.enqueue("j1")
        scheduler.run_until_idle()
        assert index.get("j1").state == DONE
        assert index.get("j1").rules == 1
        assert index.has_result("j1")

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        index = make_index(tmp_path, "j1", max_attempts=3)
        attempts = []

        def flaky(record, workdir, observer, **kwargs):
            attempts.append(record.attempts)
            if len(attempts) < 3:
                raise BrokenProcessPool("worker pool fell over")
            return '{"rules": []}', 0

        scheduler = Scheduler(
            index, n_slots=0, executor=flaky, retry_base_delay=0.0
        )
        scheduler.enqueue("j1")
        scheduler.run_until_idle()
        assert attempts == [1, 2, 3]
        record = index.get("j1")
        assert record.state == DONE
        assert record.attempts == 3

    def test_attempts_exhausted_fails(self, tmp_path):
        index = make_index(tmp_path, "j1", max_attempts=2)

        def always_down(record, workdir, observer, **kwargs):
            raise BrokenProcessPool("still down")

        scheduler = Scheduler(
            index, n_slots=0, executor=always_down, retry_base_delay=0.0
        )
        scheduler.enqueue("j1")
        scheduler.run_until_idle()
        record = index.get("j1")
        assert record.state == FAILED
        assert record.attempts == 2
        assert "BrokenProcessPool" in record.error

    def test_permanent_failure_never_retries(self, tmp_path):
        index = make_index(tmp_path, "j1", max_attempts=5)
        calls = []

        def bad_data(record, workdir, observer, **kwargs):
            calls.append(1)
            raise JobDataError("no such file")

        scheduler = Scheduler(
            index, n_slots=0, executor=bad_data, retry_base_delay=0.0
        )
        scheduler.enqueue("j1")
        scheduler.run_until_idle()
        assert len(calls) == 1
        assert index.get("j1").state == FAILED

    def test_timeout_fails_job(self, tmp_path):
        index = make_index(tmp_path, "j1", timeout_seconds=0.05)

        def slow(record, workdir, observer, **kwargs):
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                observer.on_row(0, 10, 0, 0)  # cancellation point
                time.sleep(0.005)
            return '{"rules": []}', 0

        scheduler = Scheduler(index, n_slots=0, executor=slow)
        scheduler.enqueue("j1")
        scheduler.run_until_idle()
        record = index.get("j1")
        assert record.state == FAILED
        assert "timeout" in record.error

    def test_cancel_queued_job(self, tmp_path):
        index = make_index(tmp_path, "j1")
        scheduler = Scheduler(index, n_slots=0)
        scheduler.enqueue("j1")
        assert scheduler.cancel("j1") == CANCELLED
        scheduler.run_until_idle()
        assert index.get("j1").state == CANCELLED
        assert not index.has_result("j1")

    def test_cancel_running_job(self, tmp_path):
        index = make_index(tmp_path, "j1")
        started = []

        def looping(record, workdir, observer, **kwargs):
            started.append(record.job_id)
            for _ in range(2000):
                observer.on_row(0, 10, 0, 0)
                time.sleep(0.005)
            return '{"rules": []}', 0

        scheduler = Scheduler(index, n_slots=1, executor=looping)
        try:
            scheduler.enqueue("j1")
            deadline = time.monotonic() + 5.0
            while not started and time.monotonic() < deadline:
                time.sleep(0.01)
            assert started
            scheduler.cancel("j1")
            while (
                index.get("j1").state != CANCELLED
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert index.get("j1").state == CANCELLED
        finally:
            scheduler.close()

    def test_max_concurrent_respected(self, tmp_path):
        index = make_index(tmp_path, "a", "b", "c")
        policy = QuotaPolicy(default=TenantQuota(max_concurrent=1))
        peak = {"running": 0, "now": 0}

        def tracked(record, workdir, observer, **kwargs):
            peak["now"] += 1
            peak["running"] = max(peak["running"], peak["now"])
            time.sleep(0.05)
            peak["now"] -= 1
            return '{"rules": []}', 0

        scheduler = Scheduler(
            index, policy=policy, n_slots=3, executor=tracked
        )
        try:
            for job_id in ("a", "b", "c"):
                scheduler.enqueue(job_id)
            deadline = time.monotonic() + 10.0
            while not scheduler.idle() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert scheduler.idle()
            assert peak["running"] == 1  # one tenant, capped at 1
            assert all(
                index.get(job_id).state == DONE
                for job_id in ("a", "b", "c")
            )
        finally:
            scheduler.close()


# ----------------------------------------------------------------------
# The service end to end (in-process HTTP)
# ----------------------------------------------------------------------


def http(method, url, body=None):
    request = urllib.request.Request(
        url, method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
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


class TestServiceHTTP:
    @pytest.fixture
    def service(self, tmp_path):
        policy = QuotaPolicy(
            default=TenantQuota(max_queued=3, max_rows=1000)
        )
        svc = MiningService(
            str(tmp_path / "state"), n_slots=0, serve=True, policy=policy
        )
        try:
            yield svc
        finally:
            svc.close()

    def test_submit_run_result(self, service):
        base = service.server.url
        code, document, _ = http("POST", base + "/jobs", spec_doc("h1"))
        assert code == 201
        assert document["state"] == QUEUED
        service.run_until_idle()
        code, document, _ = http("GET", base + "/jobs/h1")
        assert (code, document["state"]) == (200, DONE)
        code, result, _ = http("GET", base + "/jobs/h1/result")
        assert code == 200
        assert canonical_rules(json.dumps(result)) == direct_oracle(
            TRANSACTIONS
        )

    def test_resubmit_is_idempotent(self, service):
        base = service.server.url
        assert http("POST", base + "/jobs", spec_doc("h1"))[0] == 201
        code, document, _ = http("POST", base + "/jobs", spec_doc("h1"))
        assert code == 200  # same job, not a second one
        assert len(service.list_jobs()) == 1

    def test_result_before_done_is_409(self, service):
        base = service.server.url
        http("POST", base + "/jobs", spec_doc("h1"))
        code, document, _ = http("GET", base + "/jobs/h1/result")
        assert code == 409
        assert document["state"] == QUEUED

    def test_unknown_job_is_404(self, service):
        base = service.server.url
        assert http("GET", base + "/jobs/ghost")[0] == 404
        assert http("GET", base + "/jobs/ghost/result")[0] == 404
        assert http("DELETE", base + "/jobs/ghost")[0] == 404

    def test_malformed_spec_is_400(self, service):
        base = service.server.url
        assert http("POST", base + "/jobs", {"task": "implication"})[0] == 400
        assert http("POST", base + "/jobs", spec_doc("h1", nope=1))[0] == 400

    def test_retired_block_size_is_400(self, service):
        base = service.server.url
        code, document, _ = http(
            "POST", base + "/jobs",
            spec_doc("h1", engine="vector", vector_block_rows=64),
        )
        assert code == 400
        assert "vector_block_rows" in json.dumps(document)
        assert service.list_jobs() == []

    def test_bad_partition_settings_are_refused_at_submit(self, service):
        base = service.server.url
        for job_id, engine, bad in (
            ("h1", "partitioned", {"n_partitions": 0}),
            ("h2", "partitioned", {"n_workers": 0}),
            ("h3", "partitioned", {"n_workers": -1}),
            # Only the partitioned carrier runs a worker pool.
            ("h4", "auto", {"n_workers": 2}),
            ("h5", "dmc", {"n_workers": 2}),
            ("h6", "stream", {"n_workers": 2}),
        ):
            code, document, _ = http(
                "POST", base + "/jobs",
                spec_doc(job_id, engine=engine, **bad),
            )
            assert code == 400
            assert next(iter(bad)) in document["error"]
            # Nothing was queued: every attempt would have failed.
            assert http("GET", base + "/jobs/" + job_id)[0] == 404

    def test_disallowed_method_is_405_with_allow(self, service):
        base = service.server.url
        code, _, headers = http("PUT", base + "/jobs")
        assert code == 405
        assert "POST" in headers["Allow"]

    def test_queue_quota_is_429_with_retry_after(self, service):
        base = service.server.url
        for index in range(3):
            assert (
                http("POST", base + "/jobs", spec_doc(f"q{index}"))[0] == 201
            )
        code, document, headers = http(
            "POST", base + "/jobs", spec_doc("q3")
        )
        assert code == 429
        assert document["kind"] == "quota"
        assert int(headers["Retry-After"]) > 0

    def test_oversized_job_is_429_without_retry_after(self, service):
        base = service.server.url
        big = spec_doc("big", transactions=[["x"]] * 2000)
        code, document, headers = http("POST", base + "/jobs", big)
        assert code == 429
        assert document["kind"] == "rows"
        assert "Retry-After" not in headers

    def test_tenant_filtered_listing(self, service):
        base = service.server.url
        http("POST", base + "/jobs", spec_doc("a1", tenant="alpha"))
        http("POST", base + "/jobs", spec_doc("b1", tenant="beta"))
        _, document, _ = http("GET", base + "/jobs?tenant=alpha")
        assert [job["job_id"] for job in document["jobs"]] == ["a1"]
        _, document, _ = http("GET", base + "/jobs")
        assert len(document["jobs"]) == 2

    def test_cancel_queued(self, service):
        base = service.server.url
        http("POST", base + "/jobs", spec_doc("h1"))
        code, document, _ = http("DELETE", base + "/jobs/h1")
        assert (code, document["state"]) == (200, CANCELLED)
        service.run_until_idle()
        assert service.get_job("h1").state == CANCELLED

    def test_draining_refuses_with_503(self, service):
        base = service.server.url
        service.drain(timeout=1.0)
        code, document, _ = http("POST", base + "/jobs", spec_doc("h9"))
        assert code == 503
        assert document["kind"] == "draining"
        code, health, _ = http("GET", base + "/healthz")
        assert code == 503
        assert health["draining"] is True

    def test_metrics_carry_service_counters(self, service):
        base = service.server.url
        http("POST", base + "/jobs", spec_doc("h1"))
        service.run_until_idle()
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert "dmc_service_jobs_submitted_total 1" in text
        assert 'dmc_service_jobs_finished_total{state="done"} 1' in text

    def test_url_discovery_file(self, service, tmp_path):
        url_file = tmp_path / "state" / "service.url"
        assert url_file.read_text().strip() == service.server.url

    def test_quota_storm_sheds_load_exactly(self, service):
        """A burst over the queue quota: every admit runs to done,
        every rejection is a clean 429, nothing is half-admitted."""
        base = service.server.url
        admitted, rejected = [], []
        for index in range(12):
            code, _, _ = http("POST", base + "/jobs", spec_doc(f"s{index}"))
            if code == 201:
                admitted.append(f"s{index}")
            else:
                assert code == 429
                rejected.append(f"s{index}")
        assert len(admitted) == 3  # max_queued
        assert len(rejected) == 9
        service.run_until_idle()
        oracle = direct_oracle(TRANSACTIONS)
        for job_id in admitted:
            record = service.get_job(job_id)
            assert record.state == DONE
            assert canonical_rules(service.read_result(job_id)) == oracle
        for job_id in rejected:
            assert service.get_job(job_id) is None


# ----------------------------------------------------------------------
# Crash-point sweep over the job index
# ----------------------------------------------------------------------


def service_workload(state_dir, documents, fresh):
    """A restartable service workload for enumerate_crash_points.

    ``fresh=True`` (the ``run`` callable) wipes the state directory —
    every crash run begins from the same blank slate, so the storage
    schedule is identical up to the crash.  ``fresh=False`` (the
    ``recover`` callable) boots over whatever the crash left behind,
    exactly like a restarted process, and re-submits the same specs
    (idempotent by job_id — the client retry after an unacknowledged
    submit).
    """

    def workload(storage):
        if fresh:
            shutil.rmtree(state_dir, ignore_errors=True)
        service = MiningService(
            state_dir, storage=storage, n_slots=0, retry_base_delay=0.0
        )
        for document in documents:
            service.submit(document)
        service.run_until_idle()
        outcome = {}
        for record in service.list_jobs():
            rules = (
                canonical_rules(service.read_result(record.job_id))
                if record.state == DONE
                else None
            )
            outcome[record.job_id] = (record.state, rules)
        service.close()
        return outcome

    return workload


class TestCrashPoints:
    def test_every_job_index_op_recovers_exactly(self, tmp_path):
        """kill -9 at every storage operation of a two-job service run:
        restart must converge to both jobs done with oracle rules."""
        state_dir = str(tmp_path / "state")
        documents = [
            spec_doc("imp1"),
            {
                "job_id": "sim1", "task": "similarity", "threshold": "3/5",
                "data": {"transactions": SIM_TRANSACTIONS},
            },
        ]
        expected = {
            "imp1": (DONE, direct_oracle(TRANSACTIONS)),
            "sim1": (
                DONE,
                direct_oracle(
                    SIM_TRANSACTIONS, task="similarity", threshold="3/5"
                ),
            ),
        }
        report = enumerate_crash_points(
            service_workload(state_dir, documents, fresh=True),
            recover=service_workload(state_dir, documents, fresh=False),
            expected=expected,
        )
        assert report.total_ops > 20  # the sweep actually covered work
        assert report.failures == [], report.describe_failures()

    def test_streaming_job_resumes_through_checkpoints(self, tmp_path):
        """A stream-engine job (checkpoints + spill under the job's
        work dir) crashed at strided storage ops, including mid-mine:
        the restart resumes via the checkpoint machinery, rules exact."""
        data_path = tmp_path / "data.txt"
        rows = [
            [str(v) for v in (1, 2)] if i % 3 else [str(i % 7), "2"]
            for i in range(60)
        ]
        data_path.write_text(
            "\n".join(" ".join(row) for row in rows) + "\n"
        )
        # Oracle over the same file (numeric ids, no vocabulary), so
        # the comparison is token-for-token with the service's runs.
        direct = repro.mine(
            str(data_path), task="implication", threshold="3/4"
        )
        oracle = canonical_rules(
            rules_to_json(direct.rules, vocabulary=direct.vocabulary)
        )
        state_dir = str(tmp_path / "state")
        documents = [
            {
                "job_id": "stream1", "task": "implication",
                "threshold": "3/4", "engine": "stream",
                "data": {"path": str(data_path)},
            }
        ]
        report = enumerate_crash_points(
            service_workload(state_dir, documents, fresh=True),
            recover=service_workload(state_dir, documents, fresh=False),
            expected={"stream1": (DONE, oracle)},
            max_points=24,
        )
        assert report.total_ops > 40  # checkpoints/spill in the schedule
        assert report.failures == [], report.describe_failures()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    def test_serve_parser(self):
        args = build_parser().parse_args(
            ["serve", "--state-dir", "/tmp/x", "--slots", "4",
             "--max-queued", "10", "--port", "8080"]
        )
        assert args.command == "serve"
        assert args.slots == 4
        assert args.max_queued == 10

    def test_journal_tail_follow_flag(self):
        args = build_parser().parse_args(
            ["journal", "tail", "j.jsonl", "--follow"]
        )
        assert args.follow is True
        args = build_parser().parse_args(["journal", "tail", "j.jsonl"])
        assert args.follow is False


# ----------------------------------------------------------------------
# Subprocess chaos: real signals against `python -m repro serve`
# ----------------------------------------------------------------------


def launch_serve(state_dir, *extra):
    environment = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    environment["PYTHONPATH"] = os.path.join(root, "src")
    # A killed predecessor leaves its service.url behind; remove it so
    # the wait below always reads the *new* instance's URL.
    try:
        os.unlink(os.path.join(state_dir, "service.url"))
    except OSError:
        pass
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", state_dir, "--slots", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=environment,
    )
    url_file = os.path.join(state_dir, "service.url")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if os.path.exists(url_file):
            with open(url_file) as handle:
                return process, handle.read().strip()
        if process.poll() is not None:
            raise AssertionError(
                "serve exited early:\n"
                + process.stdout.read().decode("utf-8", "replace")
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError("serve did not publish its URL in time")


def wait_all_done(base, job_ids, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = {
            job_id: http("GET", f"{base}/jobs/{job_id}")[1].get("state")
            for job_id in job_ids
        }
        if all(state == DONE for state in states.values()):
            return states
        if any(state in (FAILED, CANCELLED) for state in states.values()):
            raise AssertionError(f"job reached a bad state: {states}")
        time.sleep(0.1)
    raise AssertionError(f"jobs not done in time: {states}")


@pytest.mark.slow
class TestServiceChaos:
    def test_kill9_mid_job_restart_recovers(self, tmp_path):
        """SIGKILL the service right after admitting work; the restart
        must finish every job with rules identical to a direct run and
        exactly one result file per job."""
        state_dir = str(tmp_path / "state")
        # Enough rows that the kill plausibly lands mid-mine; the
        # assertions hold wherever it lands.
        rows = [["a", "b"] if i % 4 else ["b", "c"] for i in range(400)]
        documents = [
            spec_doc("k1", transactions=rows),
            spec_doc("k2", transactions=rows),
            spec_doc("k3"),
        ]
        process, base = launch_serve(state_dir)
        try:
            for document in documents:
                code, _, _ = http("POST", base + "/jobs", document)
                assert code == 201
        finally:
            process.kill()  # SIGKILL: no drain, no cleanup
            process.wait(timeout=10)

        process, base = launch_serve(state_dir)
        try:
            states = wait_all_done(base, ["k1", "k2", "k3"])
            assert set(states.values()) == {DONE}
            oracle_rows = direct_oracle(rows)
            oracle_small = direct_oracle(TRANSACTIONS)
            for job_id, oracle in (
                ("k1", oracle_rows), ("k2", oracle_rows),
                ("k3", oracle_small),
            ):
                code, result, _ = http("GET", f"{base}/jobs/{job_id}/result")
                assert code == 200
                assert canonical_rules(json.dumps(result)) == oracle
            # Exactly one committed result artifact per job.
            results_dir = os.path.join(state_dir, "results")
            committed = sorted(
                name for name in os.listdir(results_dir)
                if name.endswith(".json")
            )
            assert committed == ["k1.json", "k2.json", "k3.json"]
        finally:
            process.terminate()
            assert process.wait(timeout=30) == 0

    def test_kill9_restart_loop_converges(self, tmp_path):
        """Three consecutive SIGKILLs at arbitrary moments: the job
        index never regresses and the final boot completes the work."""
        state_dir = str(tmp_path / "state")
        rows = [["a", "b"] if i % 4 else ["b", "c"] for i in range(400)]
        documents = [spec_doc(f"loop{i}", transactions=rows)
                     for i in range(2)]
        process, base = launch_serve(state_dir)
        for document in documents:
            assert http("POST", base + "/jobs", document)[0] == 201
        for _ in range(3):
            process.kill()
            process.wait(timeout=10)
            process, base = launch_serve(state_dir)
            time.sleep(0.3)  # let it get partway into the work
        try:
            states = wait_all_done(base, [d["job_id"] for d in documents])
            assert set(states.values()) == {DONE}
            oracle = direct_oracle(rows)
            for document in documents:
                code, result, _ = http(
                    "GET", f"{base}/jobs/{document['job_id']}/result"
                )
                assert canonical_rules(json.dumps(result)) == oracle
        finally:
            process.terminate()
            assert process.wait(timeout=30) == 0

    def test_sigterm_drains_and_journals_shutdown(self, tmp_path):
        state_dir = str(tmp_path / "state")
        process, base = launch_serve(state_dir)
        assert http("POST", base + "/jobs", spec_doc("d1"))[0] == 201
        wait_all_done(base, ["d1"])
        process.terminate()  # SIGTERM: graceful drain
        assert process.wait(timeout=30) == 0
        journal_path = os.path.join(state_dir, "service.jsonl")
        events = [
            json.loads(line)["event"]
            for line in open(journal_path, encoding="utf-8")
            if line.strip()
        ]
        assert "service-start" in events
        assert "service-drain" in events
        assert "service-drained" in events
        assert events[-1] == "service-stop"
