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
- ``"checkpoint.save"`` — each attempt to write a checkpoint manifest.

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
