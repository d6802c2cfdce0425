"""Structured run journal: an append-only JSONL event log.

Metrics answer "how much"; the journal answers "what happened, in what
order".  Every notable state change of a run — phase transitions, the
bitmap switch, guard trips, degradations, checkpoints, rule-emission
milestones, pruning-curve samples — is appended as one JSON object per line:

    {"run_id": "...", "seq": 17, "ts": 1722950000.1,
     "event": "bitmap-switch", "scan": "partial", "position": 96}

``seq`` is a per-run monotonic sequence number, so readers can detect
truncation (a torn tail line is expected after a crash and simply
dropped) and interleave multiple journals by run.  Writes go through
the :mod:`repro.runtime.storage` layer and are fsynced in batches
(every ``fsync_every`` events, rate-limited to one sync per
``fsync_min_interval`` seconds) — the journal is durable evidence,
not a best-effort log.  A journal whose disk fails mid-run disables itself
(mining never aborts because telemetry could not be written) and
reports the degradation.

Readers: :func:`read_journal` streams records, :func:`tail_journal`
renders the last N, :func:`summarize_journal` folds a journal into a
run summary — including reconstructing the pruning curve from the
``curve-sample`` events, which is how the acceptance tests prove the
journal carries the full candidate-decay story.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.runtime.storage import LOCAL_STORAGE, io_error_kind

JOURNAL_VERSION = 1

#: Event names a journal may contain (documented reference; emitters
#: are not restricted to this set, readers must tolerate unknown ones).
KNOWN_EVENTS = (
    "run-start",
    "phase-start",
    "phase-end",
    "bitmap-switch",
    "guard-trip",
    "degradation",
    "checkpoint",
    "rules-milestone",
    "curve-sample",
    "run-end",
    # Continuous-mining (live) events:
    "live-open",
    "delta-commit",
    "delta-applied",
    "rule-appear",
    "rule-disappear",
    "live-degrade",  # older journals only: no miner writes it now
    # HTTP access log (one per request served, see observe/server.py):
    "http-request",
)

#: A ``rules-milestone`` event fires each time the emitted-rule count
#: crosses another multiple of this.
RULES_MILESTONE_EVERY = 100


class RunJournal:
    """Append-only JSONL journal for one mining run.

    Thread-safe: the engine main thread, a live miner and the HTTP
    access log may all emit concurrently.  ``fsync_every=0``
    (or 1) fsyncs on every event — slow, maximally durable.  The
    default batches: a count-triggered fsync additionally waits out
    ``fsync_min_interval`` seconds since the last one, so a hot scan
    pays at most a few fsyncs per second and a power cut loses at most
    that interval's worth of trailing events (``close()`` always
    syncs; a torn final line is tolerated by readers).
    """

    def __init__(
        self,
        path: str,
        run_id: str,
        storage=None,
        fsync_every: int = 32,
        fsync_min_interval: float = 0.25,
    ) -> None:
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        if fsync_min_interval < 0:
            raise ValueError("fsync_min_interval must be >= 0")
        self.path = str(path)
        self.run_id = run_id
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.fsync_every = fsync_every
        self.fsync_min_interval = fsync_min_interval
        self.disabled = False
        #: The error that disabled the journal, if any (errno name).
        self.error: Optional[str] = None
        self._seq = 0
        self._pending_sync = 0
        self._last_fsync = time.monotonic()
        self._lock = threading.Lock()
        self._handle = None
        directory = self._dirname()
        if directory:
            self.storage.makedirs(directory)
        self._handle = self.storage.open(self.path, "a", encoding="utf-8")

    def _dirname(self) -> str:
        return os.path.dirname(os.path.abspath(self.path))

    def emit(self, event: str, **payload) -> None:
        """Append one event; never raises (a dead disk disables us)."""
        if self.disabled or self._handle is None:
            return
        with self._lock:
            if self.disabled:
                return
            record = {"run_id": self.run_id, "seq": self._seq,
                      "ts": time.time(), "event": event}
            record.update(payload)
            try:
                self._handle.write(
                    json.dumps(record, separators=(",", ":")) + "\n"
                )
                self._pending_sync += 1
                if self._pending_sync >= self.fsync_every and (
                    self.fsync_every <= 1
                    or time.monotonic() - self._last_fsync
                    >= self.fsync_min_interval
                ):
                    self.storage.fsync(self._handle)
                    self._pending_sync = 0
                    self._last_fsync = time.monotonic()
            except OSError as error:
                self.disabled = True
                self.error = io_error_kind(error)
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
                return
            self._seq += 1

    def flush(self) -> None:
        """Flush and fsync buffered events now, bypassing the batch.

        Low-rate writers whose events feed a live reader (the
        continuous-mining churn feed under ``repro watch``) call this
        at batch granularity — without it a sparse event stream can
        sit in the write buffer below the ``fsync_every`` trigger
        indefinitely.
        """
        if self.disabled or self._handle is None:
            return
        with self._lock:
            if self.disabled or self._handle is None:
                return
            try:
                self.storage.fsync(self._handle)
                self._pending_sync = 0
                self._last_fsync = time.monotonic()
            except OSError as error:
                self.disabled = True
                self.error = io_error_kind(error)
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def close(self) -> None:
        """Flush, fsync and close the journal (idempotent)."""
        with self._lock:
            if self._handle is None:
                return
            try:
                self.storage.fsync(self._handle)
            except OSError as error:
                self.disabled = True
                self.error = io_error_kind(error)
            finally:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "disabled" if self.disabled else f"seq={self._seq}"
        return f"RunJournal({self.path!r}, {state})"


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------


def read_journal(path: str, storage=None) -> Iterator[Dict[str, object]]:
    """Yield journal records in file order, dropping a torn tail line.

    A line that fails to parse *before* the last one indicates real
    corruption and raises ``ValueError``; an unparsable final line is
    the expected signature of a crash mid-append and is skipped.
    """
    storage = storage if storage is not None else LOCAL_STORAGE
    with storage.open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except ValueError:
            if index == len(lines) - 1:
                return
            raise ValueError(
                f"{path}: corrupt journal line {index + 1}"
            )


def tail_journal(
    path: str, count: int = 20, storage=None
) -> List[Dict[str, object]]:
    """The last ``count`` records of a journal."""
    records = list(read_journal(path, storage=storage))
    return records[-count:] if count else records


#: Seconds :func:`follow_journal` sleeps between polls of a quiet file.
FOLLOW_POLL_INTERVAL = 0.2


def follow_journal(
    path: str,
    poll_interval: float = FOLLOW_POLL_INTERVAL,
    stop=None,
    from_end: bool = False,
) -> Iterator[Dict[str, object]]:
    """Yield journal records as they are appended (``tail -F``).

    Unlike a naive follower this survives the two ways a journal file
    can change out from under its reader:

    - **rotation** — the path now names a different file (the inode or
      device changed: the old journal was renamed away and a new run
      opened a fresh one).  The follower finishes nothing (rotation is
      detected between lines), reopens the path and continues from the
      new file's start.
    - **truncation** — the file shrank below the follower's position
      (the journal was truncated in place).  The follower seeks back
      to the start and replays the new content.

    A partially written final line (the writer fsyncs in batches; a
    reader can observe a torn tail) is buffered until its newline
    arrives — records are only ever yielded whole.  Lines that never
    become valid JSON are skipped once their newline arrives, so a
    crashed writer's torn tail does not wedge the follower.

    ``stop`` is an optional zero-argument callable polled between
    reads; returning True ends the iteration (tests and the CLI's
    signal handling use it).  A missing file is waited for, so a
    follower may be started before its writer.  ``from_end=True``
    starts the *first* open at the current end of file (classic
    ``tail -f``); reopens after a rotation always start at the new
    file's beginning.
    """
    handle = None
    buffer = ""
    first_open = True
    try:
        while True:
            if stop is not None and stop():
                return
            if handle is None:
                try:
                    handle = open(path, "r", encoding="utf-8")
                except FileNotFoundError:
                    time.sleep(poll_interval)
                    continue
                if from_end and first_open:
                    # Journal lines are newline-terminated, so the end
                    # of file is a line boundary (modulo a torn tail,
                    # whose completion will fail to parse and be
                    # skipped like any torn line).
                    handle.seek(0, os.SEEK_END)
                first_open = False
                buffer = ""
            chunk = handle.read()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except ValueError:
                        continue  # torn or foreign line: skip it whole
                continue
            # Quiet file: check for rotation / truncation before
            # sleeping.  stat() by path sees the *current* occupant;
            # fstat() sees what we have open.
            try:
                current = os.stat(path)
            except OSError:
                # Rotated away with no replacement yet: reopen when
                # the new file appears.
                handle.close()
                handle = None
                time.sleep(poll_interval)
                continue
            opened = os.fstat(handle.fileno())
            if (current.st_ino, current.st_dev) != (
                opened.st_ino, opened.st_dev,
            ):
                handle.close()
                handle = None  # rotation: reopen at the new file
                continue
            if current.st_size < handle.tell():
                handle.seek(0)  # truncation: replay from the start
                buffer = ""
                continue
            time.sleep(poll_interval)
    finally:
        if handle is not None:
            handle.close()


def summarize_journal(path: str, storage=None) -> Dict[str, object]:
    """Fold a journal into a run summary.

    Returns run identity, event counts, the phase sequence with
    durations, notable incidents, and the pruning curve reconstructed
    from ``curve-sample`` events per scan — point-for-point the curve
    the engine kept in :class:`repro.core.stats.PruningCurve` (the
    journal records every sample the engine took, including the
    decimation survivors' re-samples; the reconstruction keeps the
    last record per row, mirroring ``sample_final``).

    Two aggregate views ride along:

    - ``span_table`` — per-phase-name duration aggregates (count /
      total / mean / max seconds) folded over every ``phase-end``, so
      a run that enters the same phase once per bucket or per delta
      batch still summarizes to one row per phase;
    - ``deltas`` — continuous-mining totals folded over the
      ``delta-applied`` events (batches, rows, rule churn, and the
      batches an older miner journalled as ``recovered`` replays),
      which a live job's journal carries instead of a single run-end
      record.
    """
    event_counts: Dict[str, int] = {}
    phases: List[Dict[str, object]] = []
    incidents: List[Dict[str, object]] = []
    curves: Dict[str, Dict[int, Tuple[int, int, int, int]]] = {}
    curve_orders: Dict[str, List[int]] = {}
    span_table: Dict[str, Dict[str, float]] = {}
    span_order: List[str] = []
    deltas: Dict[str, object] = {
        "batches": 0,
        "rows": 0,
        "appeared": 0,
        "disappeared": 0,
        "changed": 0,
        "recovered": 0,
        "n_rules": None,
        "last_seq": None,
    }
    run_id = None
    engine = None
    first_ts = last_ts = None
    rules_final = None
    for record in read_journal(path, storage=storage):
        event = record.get("event", "?")
        event_counts[event] = event_counts.get(event, 0) + 1
        if run_id is None:
            run_id = record.get("run_id")
        ts = record.get("ts")
        if ts is not None:
            if first_ts is None:
                first_ts = ts
            last_ts = ts
        if event == "run-start":
            engine = record.get("engine", engine)
        elif event == "phase-start":
            phases.append({"name": record.get("name"), "seconds": None})
        elif event == "phase-end":
            for phase in reversed(phases):
                if phase["name"] == record.get("name"):
                    phase["seconds"] = record.get("seconds")
                    break
            name = str(record.get("name"))
            seconds = record.get("seconds")
            if seconds is not None:
                row = span_table.get(name)
                if row is None:
                    row = span_table[name] = {
                        "count": 0, "total_seconds": 0.0,
                        "max_seconds": 0.0,
                    }
                    span_order.append(name)
                row["count"] += 1
                row["total_seconds"] += float(seconds)
                row["max_seconds"] = max(
                    row["max_seconds"], float(seconds)
                )
        elif event in ("bitmap-switch", "guard-trip", "degradation"):
            incidents.append(record)
        elif event == "curve-sample":
            scan = record.get("scan", "")
            point = (
                record.get("rows_scanned", 0),
                record.get("live_candidates", 0),
                record.get("cumulative_misses", 0),
                record.get("rules_emitted", 0),
            )
            per_scan = curves.setdefault(scan, {})
            if point[0] not in per_scan:
                curve_orders.setdefault(scan, []).append(point[0])
            per_scan[point[0]] = point
        elif event == "delta-applied":
            deltas["batches"] += 1
            for key in ("rows", "appeared", "disappeared", "changed"):
                deltas[key] += int(record.get(key) or 0)
            if record.get("recovered"):
                deltas["recovered"] += 1
            if record.get("n_rules") is not None:
                deltas["n_rules"] = record.get("n_rules")
            if record.get("seq") is not None:
                deltas["last_seq"] = record.get("seq")
        elif event == "run-end":
            rules_final = record.get("rules", rules_final)
            engine = record.get("engine") or engine
    return {
        "version": JOURNAL_VERSION,
        "run_id": run_id,
        "engine": engine,
        "events": event_counts,
        "phases": phases,
        "span_table": [
            {
                "name": name,
                "count": int(span_table[name]["count"]),
                "total_seconds": span_table[name]["total_seconds"],
                "mean_seconds": (
                    span_table[name]["total_seconds"]
                    / span_table[name]["count"]
                ),
                "max_seconds": span_table[name]["max_seconds"],
            }
            for name in span_order
        ],
        "deltas": deltas if deltas["batches"] else None,
        "incidents": incidents,
        "pruning_curves": {
            scan: [list(per_scan[row]) for row in curve_orders[scan]]
            for scan, per_scan in curves.items()
        },
        "rules": rules_final,
        "wall_seconds": (
            (last_ts - first_ts)
            if first_ts is not None and last_ts is not None
            else None
        ),
    }
