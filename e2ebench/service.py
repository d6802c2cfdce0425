"""The service workload: a ``python -m repro serve`` child under load.

Two clients share one service with two job slots, each in a closed
loop (its next request leaves only after the previous reply):

- client A submits a fixed number of batch jobs (``POST /jobs``), waits
  on each with the long poll ``GET /jobs/<id>?wait=30`` and fetches the
  committed result;
- client B opens one live job and posts a fixed number of delta batches
  to it with ``"wait": true``, so every POST returns after its batch is
  applied.

Every job's rules are checked against a direct ``repro.mine()`` of its
spec computed before the load starts, and the live job's final rule
set against a one-shot mine of all rows it was sent.  The clients
record spans of the benchmark's own :class:`repro.observe.Tracer`
around each request; those durations are the latencies reported.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.live import LiveMiner
from repro.matrix.binary_matrix import BinaryMatrix
from repro.observe import Span, Tracer

from e2ebench.inputs import (
    document_digest,
    labelled,
    rules_digest,
    seeded_rows,
    write_numeric,
)
from e2ebench.mining import TRACED_ROUNDS, MiningInput, attempt, layer_values
from e2ebench.pace import edge_probes, pace, paced
from e2ebench.report import Tally, median_of, p90

#: Longest a single long poll holds (the server caps it at 60).
LONG_POLL_SECONDS = 30

#: A batch job not finished after this long counts as failed.
JOB_DEADLINE_SECONDS = 150

HTTP_TIMEOUT_SECONDS = 120

#: ``repro serve`` must answer ``/healthz`` within this long of spawn.
START_TIMEOUT_SECONDS = 60

TERMINAL_STATES = ("done", "failed", "cancelled")

#: A batch job: its ``POST /jobs`` document and the check of its result.
Job = Tuple[dict, Callable[[bytes], bool]]

#: Untimed jobs that pay the child's lazy imports of both tasks before
#: the load starts.
WARMUP_JOBS = [
    {"task": task, "threshold": "1/2",
     "data": {"transactions": [["a", "b"], ["a", "b"], ["a"]]}}
    for task in ("implication", "similarity")
]

#: Deltas of the live job beside a mining workload's traced batch jobs:
#: a p90 over 30 latencies has 3 samples beyond it.
LAYER_DELTAS = 30

# Requests go straight to the local child; an http_proxy in the
# environment must never see them.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def http(method: str, url: str, document=None) -> Tuple[int, bytes, int]:
    """One request: ``(status, body, bytes sent + received)``."""
    data = None if document is None else json.dumps(document).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with _OPENER.open(request, timeout=HTTP_TIMEOUT_SECONDS) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as error:
        status, body = error.code, error.read()
    return status, body, len(data or b"") + len(body)


class ServeProcess:
    """One ``python -m repro serve`` child on its own durable state dir."""

    def __init__(self, state_dir: str, slots: int) -> None:
        os.makedirs(state_dir)
        self.process: Optional[subprocess.Popen] = None
        try:
            #: Seconds from spawn until ``/healthz`` answered 200, paced.
            self.setup_seconds, self.url = paced(
                lambda: self._start(state_dir, slots)
            )
        except BaseException:
            self.stop()
            raise

    def _start(self, state_dir: str, slots: int) -> str:
        with open(os.path.join(state_dir, "serve.log"), "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--state-dir", state_dir, "--slots", str(slots),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        return self._wait_healthy(os.path.join(state_dir, "service.url"))

    def _wait_healthy(self, url_file: str) -> str:
        deadline = perf_counter() + START_TIMEOUT_SECONDS
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}"
                )
            if os.path.exists(url_file):
                with open(url_file, encoding="utf-8") as handle:
                    url = handle.read().strip()
                try:
                    if url and http("GET", url + "/healthz")[0] == 200:
                        return url
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become healthy")

    def stop(self) -> None:
        """SIGTERM (the service drains and exits), then reap it."""
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# ----------------------------------------------------------------------
# Client A: batch jobs
# ----------------------------------------------------------------------


@dataclass
class JobOutcome:
    """One batch job as client A saw it."""

    job_id: str
    #: Whether a result document holds the expected rules.
    check: Callable[[bytes], bool]
    ok: bool = False
    error: str = ""
    latency: float = 0.0
    submit: float = 0.0
    fetch: float = 0.0
    wire_bytes: int = 0
    notified_at: float = 0.0
    history: list = field(default_factory=list)
    body: bytes = b""
    attempt_mine: Optional[float] = None

    def phase_seconds(self) -> Dict[str, float]:
        """Queue wait, run and notify times from the job's history."""
        stamps = {}
        for state, stamp, _note in self.history:
            stamps.setdefault(state, stamp)
        return {
            "queue_wait": stamps["running"] - stamps["queued"],
            "run": stamps["done"] - stamps["running"],
            "notify": self.notified_at - stamps["done"],
        }


def attempt_mine_seconds(chrome: dict) -> Optional[float]:
    """Seconds of the spans directly under the last ``attempt`` span of
    a job's Chrome trace: the mining phases of the attempt that ran."""
    events = [e for e in chrome.get("traceEvents", []) if e.get("ph") == "X"]
    attempts = [e for e in events if e["name"] == "attempt"]
    if not attempts:
        return None
    top = attempts[-1]
    start, end = top["ts"], top["ts"] + top["dur"]
    inside = sorted(
        (
            e for e in events
            if e is not top and e["tid"] == top["tid"]
            and start <= e["ts"] and e["ts"] + e["dur"] <= end + 1.0
        ),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    total, covered = 0.0, float("-inf")
    for event in inside:
        # Start and duration are rounded separately, so a child can
        # seem to end a hair past its parent: allow 1 us.
        if event["ts"] + event["dur"] > covered + 1.0:
            total += event["dur"]
            covered = event["ts"] + event["dur"]
    return total / 1e6


def _run_job(base: str, document: dict, outcome: JobOutcome,
             tracer: Tracer, fetch_trace: bool) -> None:
    job_url = f"{base}/jobs/{outcome.job_id}"
    with tracer.span("service.job", job_id=outcome.job_id) as job_span:
        with tracer.span("service.submit") as submit:
            status, body, wire = http("POST", f"{base}/jobs", document)
        outcome.wire_bytes += wire
        if status not in (200, 201):
            outcome.error = f"submit answered {status}"
            return
        with tracer.span("service.wait"):
            deadline = perf_counter() + JOB_DEADLINE_SECONDS
            while True:
                status, body, wire = http(
                    "GET", f"{job_url}?wait={LONG_POLL_SECONDS}"
                )
                outcome.wire_bytes += wire
                if status != 200:
                    outcome.error = f"job poll answered {status}"
                    return
                record = json.loads(body)
                if (
                    record["state"] in TERMINAL_STATES
                    or perf_counter() > deadline
                ):
                    break
        outcome.notified_at = time.time()
        outcome.history = record["history"]
        if record["state"] != "done":
            outcome.error = f"job ended {record['state']}: {record['error']}"
            return
        with tracer.span("service.result") as fetch:
            status, body, wire = http("GET", f"{job_url}/result")
        outcome.wire_bytes += wire
    outcome.latency = job_span.seconds
    outcome.submit = submit.seconds
    outcome.fetch = fetch.seconds
    if status != 200:
        outcome.error = f"result answered {status}"
        return
    outcome.body = body
    outcome.ok = True
    if fetch_trace:
        status, trace, _ = http("GET", f"{base}/runs/{outcome.job_id}/trace")
        if status == 200:
            outcome.attempt_mine = attempt_mine_seconds(json.loads(trace))


def batch_client(base: str, jobs: Sequence[Job], count: int,
                 tracer: Tracer, fetch_trace: bool,
                 prefix: str = "job") -> List[JobOutcome]:
    """Submit ``count`` of ``jobs`` round-robin, one at a time."""
    outcomes = []
    with tracer.span("client.batch"):
        for index in range(count):
            document, check = jobs[index % len(jobs)]
            outcome = JobOutcome(f"{prefix}-{index:05d}", check)
            # Client threads cannot take the sampling timer, so a job's
            # latency is paced by probes before and after it only.
            before = edge_probes()
            try:
                _run_job(base, dict(document, job_id=outcome.job_id),
                         outcome, tracer, fetch_trace)
            except (OSError, ValueError, KeyError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.latency = pace(outcome.latency, before + edge_probes())
            outcomes.append(outcome)
    return outcomes


# ----------------------------------------------------------------------
# Client B: live jobs
# ----------------------------------------------------------------------


@dataclass
class LiveOutcome:
    """The live job as client B saw it."""

    job_id: str = "live-000"
    rows_sent: int = 0
    deltas: List[Tuple[float, bool]] = field(default_factory=list)
    #: ``(seq, rows)`` of every delta the service acknowledged.
    batches: List[Tuple[int, list]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    result: bytes = b""


@dataclass
class LivePlan:
    """What client B sends: one stream, cut into seed rows + deltas."""

    task: str
    threshold: str
    stream: List[List[str]]
    seed_rows: int
    delta_rows: int
    deltas: int


def _run_live(base: str, plan: LivePlan, outcome: LiveOutcome,
              tracer: Tracer) -> None:
    job_url = f"{base}/jobs/{outcome.job_id}"
    with tracer.span("live.open"):
        status, _, _ = http("POST", f"{base}/jobs", {
            "job_id": outcome.job_id,
            "kind": "live",
            "task": plan.task,
            "threshold": plan.threshold,
            "data": {"transactions": plan.stream[:plan.seed_rows]},
        })
    if status not in (200, 201):
        outcome.errors.append(f"live submit answered {status}")
        return
    outcome.rows_sent = plan.seed_rows
    for seq in range(2, plan.deltas + 2):
        rows = plan.stream[outcome.rows_sent:outcome.rows_sent + plan.delta_rows]
        with tracer.span("live.delta", seq=seq) as span:
            status, body, _ = http("POST", f"{job_url}/deltas", {
                "seq": seq, "rows": rows, "wait": True,
            })
        ok = status == 200 and json.loads(body)["applied_seq"] >= seq
        outcome.deltas.append((span.seconds, ok))
        if not ok:
            outcome.errors.append(f"delta {seq} answered {status}")
            break
        outcome.batches.append((seq, rows))
        outcome.rows_sent += len(rows)
    status, body, _ = http("GET", f"{job_url}/result")
    if status == 200:
        outcome.result = body
    else:
        outcome.errors.append(f"live result answered {status}")
    http("DELETE", job_url)


def live_client(base: str, plan: LivePlan, tracer: Tracer) -> LiveOutcome:
    """Run the live job."""
    outcome = LiveOutcome()
    with tracer.span("client.live"):
        try:
            _run_live(base, plan, outcome, tracer)
        except (OSError, ValueError, KeyError) as error:
            outcome.errors.append(f"{type(error).__name__}: {error}")
    return outcome


# ----------------------------------------------------------------------
# The load
# ----------------------------------------------------------------------


@dataclass
class Load:
    """Everything one service load measured."""

    setup: List[float]
    jobs: List[JobOutcome]
    batch_seconds: float
    live: LiveOutcome
    peak_rss_mb: float


def _graft(tracer: Tracer, client: Tracer, offset: float) -> None:
    """Move a client thread's spans into ``tracer``'s timeline."""
    def shift(span: Span) -> None:
        span.start_seconds += offset
        for child in span.children:
            shift(child)

    for span in client.spans:
        shift(span)
        tracer.attach(span)


def run_load(
    workdir: str,
    slots: int,
    jobs: Sequence[Job],
    job_count: int,
    plan: LivePlan,
    tracer: Tracer,
    *,
    setup_spawns: int = 1,
    fetch_trace: bool = False,
) -> Load:
    """Spawn ``repro serve`` (``setup_spawns`` times; the last one takes
    the load), then run client A (``job_count`` batch jobs) and client B
    (the live job) concurrently."""
    setup = []
    service = None
    try:
        for index in range(setup_spawns):
            if service is not None:
                service.stop()
            service = ServeProcess(
                os.path.join(workdir, f"service-{index}"), slots
            )
            setup.append(service.setup_seconds)
        # First calls pay the child's lazy imports; keep them out of the
        # measured latencies.
        batch_client(service.url, [(job, bool) for job in WARMUP_JOBS],
                     len(WARMUP_JOBS), Tracer(), fetch_trace=False,
                     prefix="warmup")
        url = service.url
        calls = {
            "jobs": lambda t: batch_client(
                url, jobs, job_count, t, fetch_trace
            ),
            "live": lambda t: live_client(url, plan, t),
        }
        results: Dict[str, object] = {}
        clients: Dict[str, Tuple[float, Tracer]] = {}

        def client(key: str) -> None:
            # Tracer is not thread-safe: one per client thread, grafted
            # into the run's tracer after both joined.
            clients[key] = (perf_counter(), Tracer())
            results[key] = calls[key](clients[key][1])

        threads = [
            threading.Thread(target=client, args=(key,), name=f"client-{key}")
            for key in calls
        ]
        started = perf_counter()
        with tracer.span("service.load", slots=slots) as load:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        zero = started - load.start_seconds  # the tracer's own origin
        for created, client_tracer in clients.values():
            _graft(tracer, client_tracer, created - zero)
    finally:
        if service is not None:
            service.stop()
    return Load(
        setup=setup,
        jobs=results["jobs"],
        batch_seconds=clients["jobs"][1].spans[0].seconds,
        live=results["live"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024.0,
    )


# ----------------------------------------------------------------------
# Checking and reducing a load
# ----------------------------------------------------------------------


def check_load(load: Load, plan: LivePlan, tally: Tally) -> None:
    """Count every job, delta and the live job; check every rule set."""
    for job in load.jobs:
        ok = job.ok and job.check(job.body)
        tally.record(ok, f"{job.job_id}: {job.error or 'rules differ'}")
    live = load.live
    for seq, (_, ok) in enumerate(live.deltas, start=2):
        tally.record(ok, f"{live.job_id} delta {seq}")
    ok = bool(live.result)
    if ok:
        one_shot = repro.mine(
            BinaryMatrix.from_transactions(plan.stream[:live.rows_sent]),
            task=plan.task, threshold=plan.threshold,
        )
        ok = document_digest(live.result) == rules_digest(one_shot.rules)
    tally.record(ok, f"{live.job_id}: " + (
        "; ".join(live.errors) or "rules differ from a one-shot mine"
    ))


def load_values(load: Load) -> Dict[str, float]:
    """The client-side numbers of a load (jobs that got a result); NaN
    where no operation succeeded."""
    done = [job for job in load.jobs if job.ok]
    latencies = [job.latency for job in done]
    phases = [job.phase_seconds() for job in done]
    deltas = [seconds for seconds, ok in load.live.deltas if ok]
    return {
        "batch_job_s": median_of(latencies),
        "service.submit_s": median_of([job.submit for job in done]),
        "service.queue_wait_s": median_of([p["queue_wait"] for p in phases]),
        "service.run_s": median_of([p["run"] for p in phases]),
        "service.notify_s": median_of([p["notify"] for p in phases]),
        "service.result_fetch_s": median_of([job.fetch for job in done]),
        "service.bytes_per_job": median_of([job.wire_bytes for job in done]),
        "service.attempt_mine_s": median_of([
            job.attempt_mine for job in done if job.attempt_mine is not None
        ]),
        "service.job_p90_s": p90(latencies),
        "service.jobs_per_s": len(done) / load.batch_seconds,
        "live.delta_p50_s": median_of(deltas),
        "live.delta_p90_s": p90(deltas),
    }


def replay_live(plan: LivePlan, outcome: LiveOutcome, root: str,
                tracer: Tracer) -> Dict[str, float]:
    """Replay the live job's delta stream through a standalone
    :class:`~repro.live.LiveMiner`: WAL commit and apply, timed apart."""
    miner = LiveMiner(root, plan.task, plan.threshold)
    miner.commit(1, plan.stream[:plan.seed_rows])
    miner.apply_committed()
    commits, applies = [], []
    for seq, rows in outcome.batches:
        with tracer.span("live.wal_commit", seq=seq) as commit:
            miner.commit(seq, rows)
        with tracer.span("live.apply", seq=seq) as apply:
            miner.apply_committed()
        commits.append(commit.seconds)
        applies.append(apply.seconds)
    return {"live.wal_commit_s": median_of(commits),
            "live.apply_s": median_of(applies)}


def live_layer_values(load: Load, plan: LivePlan, root: str,
                      tracer: Tracer) -> Dict[str, float]:
    values = replay_live(plan, load.live, root, tracer)
    values["live.http_s"] = (
        load_values(load)["live.delta_p50_s"]
        - values["live.wal_commit_s"] - values["live.apply_s"]
    )
    return values


def live_plan(spec: dict, size: dict, labels: List[List[str]],
              deltas: int) -> LivePlan:
    """Client B's plan: the live job's seed rows and ``deltas`` batches
    of ``labels``."""
    needed = size["seed_rows"] + deltas * size["delta_rows"]
    return LivePlan(
        task=spec["live"]["task"],
        threshold=spec["live"]["threshold"],
        stream=labels[:needed],
        seed_rows=size["seed_rows"],
        delta_rows=size["delta_rows"],
        deltas=deltas,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def _document_matches(digest: str, body: bytes) -> bool:
    return document_digest(body) == digest


def service_workload(spec: dict, size: dict, seed: int, workdir: str,
                     tracer: Tracer, tally: Tally,
                     trace: bool) -> Dict[str, float]:
    """The ``service-mixed`` workload: ``batch_jobs`` jobs over row
    slices of one seeded data set, alternating the spec's tasks, beside
    one live job fed ``deltas`` batches from the same rows.

    The load is a fixed amount of work, not cut off by a clock: the
    service's memory grows with every job it holds, so a time-bounded
    loop would report a faster service as a bigger one.
    """
    rows, _, _ = seeded_rows(size["data"], seed)
    labels = labelled(rows)
    step = size["slice_rows"]
    specs = [
        (labels[start:start + step],
         {"task": job["task"], "threshold": job["threshold"]})
        for start in range(0, len(labels), step)
        for job in spec["jobs"]
    ]
    # Every job spec mined in-process with both engines before the load:
    # the timings of mine_s and mine_vector_s, and each job's reference
    # rule set (the auto engine's; the vector engine must agree).
    times: Dict[str, List[float]] = {"auto": [], "vector": []}
    jobs: List[Job] = []
    references = []
    for piece, kwargs in specs:
        reference = None
        for engine in ("auto", "vector"):
            matrix = BinaryMatrix.from_transactions(piece)
            seconds, result = attempt(
                tally, f"direct {engine} mine",
                lambda: repro.mine(matrix, engine=engine, **kwargs),
                lambda r: reference in (None, rules_digest(r.rules)),
            )
            if seconds is not None:
                times[engine].append(seconds)
            if reference is None:
                reference = rules_digest(result.rules) if result else ""
        references.append(reference)
        jobs.append((
            {**kwargs, "data": {"transactions": piece}},
            partial(_document_matches, reference),
        ))
    plan = live_plan(spec, size, labels, size["deltas"])
    load = run_load(
        workdir, spec["slots"], jobs, size["batch_jobs"], plan, tracer,
        setup_spawns=spec["setup_spawns"], fetch_trace=trace,
    )
    check_load(load, plan, tally)

    values = load_values(load)
    values.update(
        setup_s=median_of(load.setup),
        mine_s=median_of(times["auto"]),
        mine_vector_s=median_of(times["vector"]),
        peak_rss_mb=load.peak_rss_mb,
    )
    if trace:
        values.update(live_layer_values(
            load, plan, os.path.join(workdir, "replay"), tracer
        ))
        # The mining layers under the jobs, measured on the first job.
        first = BinaryMatrix.from_transactions(specs[0][0])
        path = os.path.join(workdir, "job-0.txt")
        first_rows = [first.row(i) for i in range(first.n_rows)]
        write_numeric(first_rows, first.n_columns, path)
        values.update(layer_values(
            MiningInput(first_rows, first.n_columns, spec["jobs"][0],
                        references[0], path),
            tracer, tally,
        ))
    return values


def service_layers(spec: dict, size: dict, seed: int, data: MiningInput,
                   workdir: str, tracer: Tracer,
                   tally: Tally) -> Dict[str, float]:
    """The service and live layers under a mining workload.

    Its batch job runs through ``repro serve`` as a ``"stream"`` job on
    its input file, once per traced round, beside a live job with the
    ``service-mixed`` settings (``spec`` and ``size``).  The live miner
    is built for appends of a few dozen market-basket rows: seeding it
    with 500 rows of ``Wlog`` takes over a minute, so the live job does
    not take the workload's own rows.
    """
    rows, _, _ = seeded_rows(size["data"], seed)
    plan = live_plan(spec, size, labelled(rows), LAYER_DELTAS)
    document = {
        "task": data.spec["task"],
        "threshold": data.spec["threshold"],
        "engine": "stream",
        "data": {"path": data.path},
    }
    load = run_load(
        workdir, spec["slots"], [(document, data.document_ok)],
        TRACED_ROUNDS,
        plan, tracer, fetch_trace=True,
    )
    check_load(load, plan, tally)
    values = load_values(load)
    values.update(live_layer_values(
        load, plan, os.path.join(workdir, "replay"), tracer
    ))
    return values
