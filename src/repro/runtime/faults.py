"""Deterministic fault injection for the streaming runtime.

The resilience claims of :mod:`repro.runtime` — checkpoint/resume,
retry-with-backoff, graceful degradation — are only testable if faults
can be produced *on demand and reproducibly*.  This module provides a
minimal harness: production code calls :func:`trip` at named injection
sites, which is a no-op unless a :class:`FaultPlan` is installed (so
the hot path costs one global read); tests install a plan describing
exactly which call at which site should fail, and with what.

Injection sites wired into the pipeline:

- ``"pass1.row"`` — before each row of the first (counting/spilling)
  scan in :func:`repro.matrix.stream._first_scan`;
- ``"pass2.row"`` — before each row replayed from the spill buckets in
  the second scan (both the 100%-rule and the partial pass);
- ``"spill.open"`` — each attempt to open a spill-bucket file for
  reading (inside the :func:`repro.runtime.guards.retry_io` loop, so a
  transient fault here exercises the backoff path);
- ``"checkpoint.save"`` — each attempt to write a checkpoint manifest;
- ``"ledger.save"`` — each attempt to write a supervisor shard-ledger
  manifest (:class:`repro.runtime.supervisor.ShardLedger`).

Spawned worker processes do **not** inherit the installed plan, so the
parallel runtime has its own explicitly-shipped harness: a
:class:`WorkerFaultPlan` of :class:`WorkerFault` entries is passed to
:class:`repro.runtime.supervisor.Supervisor`, travels to every worker
by pickling, and fires *inside* the worker — a hard ``os._exit`` crash,
an infinite hang, or a corrupted result — keyed by task id and attempt
number so recovery (retry, respawn, quarantine) is deterministic.

Example::

    plan = FaultPlan([Fault("pass2.row", first=10, error=SimulatedCrash)])
    with faults.install(plan):
        stream_implication_rules(source, 0.9, checkpoint_dir=ckpt)
    # -> SimulatedCrash on the 10th replayed row; the checkpoint
    #    survives, and a re-run resumes pass 2 without rescanning.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Union


class SimulatedCrash(RuntimeError):
    """An injected process death (never retried, never caught internally)."""


class TransientIOError(OSError):
    """An injected transient I/O failure (eligible for retry)."""


@dataclass
class Fault:
    """One scheduled failure: fire at ``site`` on calls
    ``first .. first + count - 1`` (1-based).

    ``error`` is an exception class (instantiated with a descriptive
    message) or a ready-made exception instance raised as-is.
    """

    site: str
    error: Union[type, BaseException] = TransientIOError
    first: int = 1
    count: int = 1

    def covers(self, call_index: int) -> bool:
        """True when the ``call_index``-th call at the site should fail."""
        return self.first <= call_index < self.first + self.count

    def raise_(self, call_index: int) -> None:
        """Raise this fault's exception for the given call."""
        if isinstance(self.error, BaseException):
            raise self.error
        raise self.error(
            f"injected fault at {self.site!r} (call {call_index})"
        )


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, keyed by injection site."""

    faults: Iterable[Fault] = ()
    calls: Dict[str, int] = field(default_factory=dict)
    fired: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.faults = list(self.faults)

    def trip(self, site: str) -> None:
        """Count one call at ``site`` and raise if a fault covers it."""
        index = self.calls.get(site, 0) + 1
        self.calls[site] = index
        for fault in self.faults:
            if fault.site == site and fault.covers(index):
                self.fired[site] = self.fired.get(site, 0) + 1
                fault.raise_(index)


#: The fault modes a worker can act out (see ``_worker_loop``).
WORKER_FAULT_MODES = ("crash", "hang", "corrupt")


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled worker-side failure.

    ``mode`` is ``"crash"`` (hard ``os._exit``, no traceback),
    ``"hang"`` (the worker holds the task forever) or ``"corrupt"``
    (the task completes but its result is mangled).  ``task_id=None``
    matches every task; ``attempts`` is how many attempts of a matching
    task fail (so ``attempts=1`` fails once and lets the retry
    succeed, while a large value forces quarantine).
    """

    mode: str
    task_id: Optional[str] = None
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.mode not in WORKER_FAULT_MODES:
            raise ValueError(
                f"unknown worker fault mode {self.mode!r}; expected one "
                f"of {WORKER_FAULT_MODES}"
            )

    def matches(self, task_id: str, attempt: int) -> bool:
        """True when this attempt of ``task_id`` should fail."""
        return (
            self.task_id is None or self.task_id == task_id
        ) and attempt <= self.attempts


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A picklable schedule of worker-side faults.

    Unlike :class:`FaultPlan` (installed process-globally), this plan
    is shipped to each spawned worker explicitly and consulted once per
    task execution; the first matching fault wins.
    """

    faults: tuple = ()

    def match(self, task_id: str, attempt: int) -> Optional[str]:
        """The fault mode for this attempt, or ``None``."""
        for fault in self.faults:
            if fault.matches(task_id, attempt):
                return fault.mode
        return None


#: The currently-installed plan (None = fault injection disabled).
_active: Optional[FaultPlan] = None


@contextmanager
def install(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the ``with`` block."""
    global _active
    previous = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = previous


def trip(site: str) -> None:
    """Injection point: fail here if the active plan says so.

    No-op (one global read) when no plan is installed, so production
    code can leave these calls in place permanently.
    """
    if _active is not None:
        _active.trip(site)
