"""The supervised spawn pool: where :class:`~repro.runtime.supervisor.
Supervisor` tasks execute when ``n_workers > 1``.

The supervisor owns the *policy* of a run — retry budgets, validation,
quarantine, the shard ledger.  This module holds the *mechanics* of
running its tasks on spawn-context worker processes: one task queue
and one result pipe per worker, heartbeat hang detection, and crash
respawn.  Every *interval* comparison — heartbeats, hang deadlines,
retry backoff eligibility — uses ``time.monotonic()``, so an NTP step
can neither mass-expire nor never-expire heartbeats.
(``time.monotonic`` is system-wide on Linux/macOS/Windows, so a
worker's stamp and the supervisor's sweep read the same clock.)  Wall
clock is kept only for reporting.

When workers die faster than tasks complete, :func:`run_pool` declares
the pool broken (``SupervisorReport.pool_broken``) and returns early;
the supervisor then finishes the leftover tasks in-process, so the
rule set stays exact even when no worker survives.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.runtime.faults import WorkerFaultPlan

#: Exit code a worker uses for an injected hard crash (never a real one).
WORKER_CRASH_EXIT = 23


def _mp_available() -> bool:
    """Whether spawn-context multiprocessing is usable here.

    Split out (and intentionally tiny) so tests and exotic platforms
    can force the in-process path.
    """
    try:
        import multiprocessing

        multiprocessing.get_context("spawn")
    except (ImportError, ValueError):
        return False
    return True


# ----------------------------------------------------------------------
# Worker side of the local pool (runs in the spawned process)
# ----------------------------------------------------------------------


def _corrupt_result(result: Any) -> Any:
    """The injected ``corrupt`` fault: a shape no validator accepts."""
    return {"__corrupted__": repr(result)[:48]}


def _worker_loop(
    worker_id: int,
    fn: Callable[[Any], Any],
    task_queue,
    result_conn,
    heartbeat,
    fault_plan: Optional[WorkerFaultPlan],
    telemetry: bool = False,
    flush_interval: float = 0.5,
) -> None:
    """Entry point of a spawned worker: serve tasks until told to stop.

    Messages sent over ``result_conn`` are
    ``(task_id, attempt, status, result)`` with ``status`` in
    ``{"ok", "error", "telemetry"}``; the attempt number lets the
    supervisor discard stale results from an assignment it already gave
    up on.  The pipe has this worker as its only writer —
    ``Connection.send`` writes directly, with no feeder thread and no
    lock shared with siblings — so dying mid-send cannot wedge anyone
    else.  (Within this process the main loop and the telemetry flusher
    thread do share the pipe, serialized by a local lock.)

    Heartbeats are stamped from ``time.monotonic()`` — the same
    system-wide clock the supervisor's hang sweep reads — so a
    wall-clock step (NTP, manual reset) on the host can never make a
    healthy worker look hung or a hung worker look healthy.

    With ``telemetry`` on, each task attempt runs against a fresh
    :class:`repro.observe.RunObserver` passed to ``fn`` as
    ``observer=``:

    - every ``flush_interval`` seconds an in-flight snapshot of the
      attempt's metrics is sent as a non-final ``"telemetry"`` message
      (the parent folds only its gauges — a live view);
    - a completed attempt sends one final ``"telemetry"`` message
      (metrics document plus the observer's span trees) *before* its
      ``"ok"`` result, so pipe ordering guarantees the parent holds the
      telemetry by the time it accepts the result.  Counters merge from
      this final message only, and only for accepted attempts — which
      is what keeps the merged totals equal to a serial run's even when
      attempts crash and retry.
    """
    send_lock = threading.Lock()
    stop = threading.Event()
    #: The in-flight attempt the flusher may snapshot (guarded).
    inflight = {"observer": None, "task_id": None, "attempt": None}
    inflight_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            result_conn.send(message)

    if telemetry:

        def flush_loop() -> None:
            while not stop.wait(flush_interval):
                with inflight_lock:
                    observer = inflight["observer"]
                    task_id = inflight["task_id"]
                    attempt = inflight["attempt"]
                if observer is None:
                    continue
                observer.flush()
                payload = {
                    "task_id": task_id,
                    "attempt": attempt,
                    "worker_id": worker_id,
                    "final": False,
                    "metrics": observer.metrics.to_dict(),
                }
                try:
                    send((task_id, attempt, "telemetry", payload))
                except (BrokenPipeError, OSError):
                    return

        threading.Thread(
            target=flush_loop,
            name=f"repro-telemetry-flush-{worker_id}",
            daemon=True,
        ).start()

    while True:
        item = task_queue.get()
        if item is None:
            stop.set()
            return
        task_id, attempt, payload = item
        heartbeat.value = time.monotonic()
        mode = (
            fault_plan.match(task_id, attempt)
            if fault_plan is not None
            else None
        )
        if mode == "crash":
            os._exit(WORKER_CRASH_EXIT)
        if mode == "hang":
            while True:  # hold the task forever; only a kill ends this
                time.sleep(3600)
        observer = None
        if telemetry:
            from repro.observe import RunObserver

            observer = RunObserver()
            with inflight_lock:
                inflight["observer"] = observer
                inflight["task_id"] = task_id
                inflight["attempt"] = attempt
        started = time.perf_counter()
        try:
            if observer is not None:
                result = fn(payload, observer=observer)
            else:
                result = fn(payload)
            if mode == "corrupt":
                result = _corrupt_result(result)
            message = (task_id, attempt, "ok", result)
        except BaseException as error:  # report, keep serving
            message = (
                task_id, attempt, "error",
                f"{type(error).__name__}: {error}",
            )
        if observer is not None:
            with inflight_lock:
                inflight["observer"] = None
            if message[2] == "ok":
                observer.flush()
                telemetry_payload = {
                    "task_id": task_id,
                    "attempt": attempt,
                    "worker_id": worker_id,
                    "final": True,
                    "seconds": time.perf_counter() - started,
                    "metrics": observer.metrics.to_dict(),
                    "spans": [
                        span.to_dict() for span in observer.tracer.spans
                    ],
                }
                try:
                    send((task_id, attempt, "telemetry", telemetry_payload))
                except (BrokenPipeError, OSError):
                    return
        try:
            send(message)
        except (BrokenPipeError, OSError):
            return  # supervisor gave up on us; nothing left to serve
        heartbeat.value = time.monotonic()


class _WorkerHandle:
    """Supervisor-side state of one spawned worker."""

    __slots__ = (
        "worker_id", "process", "task_queue", "conn", "heartbeat",
        "task", "attempt", "assigned_at",
    )

    def __init__(
        self, worker_id, process, task_queue, conn, heartbeat
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.conn = conn
        self.heartbeat = heartbeat
        self.task = None
        self.attempt = 0
        #: ``time.monotonic()`` at assignment — compared only against
        #: the worker's monotonic heartbeat stamps, never wall clock.
        self.assigned_at = 0.0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def hung(self, now: float, timeout: Optional[float]) -> bool:
        """True when the current task outlived ``timeout``.

        ``now`` and the heartbeat are both ``time.monotonic()`` stamps.
        The clock starts at the worker's last heartbeat — the moment it
        picked the task up — so slow spawn-time imports never count
        against the task.  Before the first heartbeat of this
        assignment the worker is still starting; liveness is covered by
        the ``is_alive`` check instead.
        """
        if timeout is None or self.task is None:
            return False
        picked_up = self.heartbeat.value
        if picked_up < self.assigned_at:
            return False
        return now - picked_up > timeout


# ----------------------------------------------------------------------
# The pool loop (supervisor side)
# ----------------------------------------------------------------------


def pool_usable(n_pending: int, n_workers: int) -> bool:
    """Whether :func:`run_pool` should run at all (else: in-process)."""
    return n_workers > 1 and n_pending > 1 and _mp_available()


def run_pool(supervisor, pending: Sequence, report) -> None:
    """Run ``pending`` tasks on a fresh spawn pool, then tear it down.

    ``supervisor`` supplies the policy (``fn``, retry budget,
    ``validate``, ``_complete`` bookkeeping, quarantine via
    ``_run_serial``); outcomes and counters go into ``report``.  Tasks
    left without an outcome (a broken pool) are the caller's to finish.
    """
    import multiprocessing
    from multiprocessing import connection as mp_connection

    ctx = multiprocessing.get_context("spawn")
    workers: List[_WorkerHandle] = []
    #: (eligible_at, tiebreak, task) — retry backoff lives here,
    #: on the monotonic clock (a wall step must not stall retries).
    ready: List = []
    failures: Dict[str, int] = {}
    attempts: Dict[str, int] = {}
    started_at: Dict[str, float] = {}
    quarantine: List = []
    #: Final telemetry payloads awaiting their attempt's acceptance.
    telemetry_buffer: Dict = {}
    last_heartbeat_notify = 0.0
    target = len(pending)
    #: Consecutive worker deaths with no task completing in between;
    #: past the budget the pool is declared broken and the caller
    #: finishes the leftovers in-process.
    deaths_without_progress = 0
    death_budget = max(
        6, 2 * (supervisor.task_retries + 1), 2 * supervisor.n_workers + 2
    )

    for sequence, task in enumerate(pending):
        heapq.heappush(ready, (0.0, sequence, task))
    tiebreak = len(pending)

    def spawn_worker() -> _WorkerHandle:
        worker_id = supervisor._next_worker_id
        supervisor._next_worker_id += 1
        task_queue = ctx.Queue()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        heartbeat = ctx.Value("d", 0.0)
        process = ctx.Process(
            target=_worker_loop,
            args=(
                worker_id, supervisor.fn, task_queue, send_conn,
                heartbeat, supervisor.worker_faults,
                supervisor.worker_telemetry,
                supervisor.telemetry_flush_interval,
            ),
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end so a dead worker
        # reads as EOF instead of an open-forever pipe.
        send_conn.close()
        handle = _WorkerHandle(
            worker_id, process, task_queue, recv_conn, heartbeat
        )
        workers.append(handle)
        return handle

    def fail(handle: Optional[_WorkerHandle], task, reason: str):
        nonlocal tiebreak
        # A failed attempt's metrics must never merge — but its
        # span tree still belongs in the trace, tagged as failed,
        # so a retry storm stays visible without double counting.
        buffered = telemetry_buffer.pop(
            (task.task_id, attempts.get(task.task_id)), None
        )
        if buffered is not None:
            failed_payload = dict(buffered)
            failed_payload["failed"] = True
            failed_payload["failed_reason"] = reason
            supervisor._notify(
                "on_worker_telemetry", failed_payload, True
            )
        count = failures.get(task.task_id, 0) + 1
        failures[task.task_id] = count
        if count > supervisor.task_retries:
            quarantine.append(task)
            report.tasks_quarantined += 1
            supervisor._notify("on_task_quarantined", task.task_id)
        else:
            report.task_retries += 1
            supervisor._notify("on_task_retry", task.task_id, reason)
            delay = supervisor.backoff_base * (2 ** (count - 1))
            heapq.heappush(
                ready, (time.monotonic() + delay, tiebreak, task)
            )
            tiebreak += 1
        if handle is not None:
            handle.task = None

    def respawn(handle: _WorkerHandle, reason: str) -> None:
        nonlocal deaths_without_progress
        deaths_without_progress += 1
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():  # terminate ignored; escalate
            handle.process.kill()
            handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        workers.remove(handle)
        report.worker_restarts += 1
        supervisor._notify("on_worker_restart", handle.worker_id, reason)
        spawn_worker()

    try:
        for _ in range(min(supervisor.n_workers, len(pending))):
            spawn_worker()

        while True:
            settled = sum(
                1 for t in pending if t.task_id in report.outcomes
            ) + len(quarantine)
            if settled >= target:
                break
            if deaths_without_progress > death_budget:
                report.pool_broken = True
                break
            now = time.monotonic()
            # 1. Hand ready tasks to idle workers.
            for handle in workers:
                if not ready or handle.busy:
                    continue
                if not handle.process.is_alive():
                    continue  # picked up by the liveness sweep below
                eligible_at, _, task = ready[0]
                if eligible_at > now:
                    continue
                heapq.heappop(ready)
                attempt = attempts.get(task.task_id, 0) + 1
                attempts[task.task_id] = attempt
                handle.task = task
                handle.attempt = attempt
                handle.assigned_at = now
                started_at[task.task_id] = now
                handle.task_queue.put(
                    (task.task_id, attempt, task.payload)
                )

            # 2. Drain ready results (or time out and sweep).  Each
            #    pipe has exactly one writer, so a crashed worker
            #    can only break its own channel — read as EOF here
            #    and handled by the liveness sweep.
            readable = mp_connection.wait(
                [w.conn for w in workers],
                timeout=supervisor.poll_interval,
            )
            for conn in readable:
                handle = next(
                    (w for w in workers if w.conn is conn), None
                )
                if handle is None:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue  # dead worker; the sweep respawns it
                task_id, attempt, status, result = message
                current = (
                    handle.task is not None
                    and handle.task.task_id == task_id
                    and handle.attempt == attempt
                )
                if status == "telemetry":
                    # Worker metrics/spans ride the same ordered
                    # pipe as results.  Finals wait in the buffer
                    # until their attempt is *accepted*; in-flight
                    # snapshots feed only live gauges.  Either way
                    # a stale assignment's telemetry is dropped.
                    if not current:
                        continue
                    if result.get("final"):
                        telemetry_buffer[(task_id, attempt)] = result
                    else:
                        supervisor._notify(
                            "on_worker_telemetry", result, False
                        )
                    continue
                if current:
                    task = handle.task
                    handle.task = None
                    if task_id in report.outcomes:
                        pass  # already satisfied (stale double)
                    elif status == "ok" and (
                        supervisor.validate is None
                        or supervisor.validate(result)
                    ):
                        deaths_without_progress = 0
                        seconds = time.monotonic() - started_at[task_id]
                        buffered = telemetry_buffer.pop(
                            (task_id, attempt), None
                        )
                        if buffered is not None:
                            supervisor._notify(
                                "on_worker_telemetry", buffered, True
                            )
                        supervisor._complete(
                            task, result, attempt, seconds, report,
                            quarantined=False,
                        )
                    elif status == "ok":
                        fail(None, task, "corrupt result")
                    else:
                        fail(None, task, str(result))
                # else: a stale result for an assignment the
                # supervisor already gave up on — drop it.

            # 3. Liveness and hang sweep (monotonic throughout).
            now = time.monotonic()
            if (
                supervisor.observer.enabled
                and now - last_heartbeat_notify >= 0.5
            ):
                last_heartbeat_notify = now
                supervisor._notify(
                    "on_worker_heartbeats",
                    {
                        handle.worker_id: (
                            round(now - handle.heartbeat.value, 3)
                            if handle.heartbeat.value
                            else -1.0
                        )
                        for handle in workers
                        if handle.process.is_alive()
                    },
                )
            for handle in list(workers):
                if not handle.process.is_alive():
                    task = handle.task
                    respawn(
                        handle,
                        f"exited with code {handle.process.exitcode}",
                    )
                    if task is not None:
                        fail(None, task, "worker died mid-task")
                elif handle.hung(now, supervisor.task_timeout):
                    task = handle.task
                    handle.task = None
                    respawn(handle, "task timeout (hung)")
                    fail(None, task, "task timeout")
    finally:
        for handle in workers:
            try:
                handle.task_queue.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 5.0
        for handle in workers:
            handle.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    # 4. Quarantined tasks re-run serially in-process: slower, but
    #    exact — the worker-scoped faults cannot follow them here.
    for task in quarantine:
        supervisor._run_serial(task, report, quarantined=True)
