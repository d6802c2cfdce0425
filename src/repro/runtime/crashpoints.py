"""ALICE-style crash-point enumeration over the storage layer.

Hand-written recovery tests crash a run at a handful of hand-picked
moments (mid-pass-2, mid-checkpoint-write).  That style misses the crash
windows nobody thought of — the instant *between* ``os.replace`` and
the directory fsync, the moment after a bucket is opened but before the
manifest exists.  This module brute-forces the schedule instead, in the
spirit of ALICE (Pillai et al., OSDI'14): because every durable
operation routes through :class:`repro.runtime.storage.Storage`, a
workload's storage schedule is *enumerable* —

1. run the workload once against a plain counting
   :class:`~repro.runtime.storage.FaultyStorage` to learn its ``N``
   storage operations and the expected result;
2. for each ``k`` in ``1..N``, rerun against
   ``FaultyStorage(crash_at=k)`` — the "process" dies at operation
   ``k`` and every operation after it (a dead process never touches
   the disk again);
3. run the recovery path on a fresh storage over whatever files the
   crash left behind, and check its result against the expected one.

The paper's exactness guarantee must hold at *every* ``k``: a resume
from a half-written checkpoint or job record may redo work, but may never
change the mined rules.  :func:`enumerate_crash_points` returns a
:class:`CrashPointReport` whose :attr:`~CrashPointReport.failures`
list the tests assert empty.

The harness knows nothing about mining — ``run`` is any
``storage -> result`` callable.  The tests compose it with the
streaming-checkpoint pipeline and the job service's durable index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.runtime.faults import SimulatedCrash
from repro.runtime.storage import FaultyStorage


@dataclass(frozen=True)
class CrashPointResult:
    """The outcome of crashing one run at one storage operation."""

    #: 1-based index of the storage operation the crash replaced.
    op_index: int
    #: Operation name at that index (``open-write``, ``replace``, ...).
    op: str
    #: Path the operation was about to touch.
    path: str
    #: True when the injected crash actually unwound the workload
    #: (False means something swallowed the :class:`SimulatedCrash` —
    #: itself a bug worth seeing in a failure report).
    crashed: bool
    #: True when the post-crash recovery produced the expected result.
    recovered_equal: bool

    @property
    def ok(self) -> bool:
        return self.crashed and self.recovered_equal


@dataclass
class CrashPointReport:
    """Every enumerated crash point of one workload, judged."""

    #: Storage operations the clean run performed.
    total_ops: int
    #: ``(op, path)`` schedule of the clean run, in order.
    schedule: List[tuple] = field(default_factory=list)
    #: One entry per crash point actually exercised.
    results: List[CrashPointResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CrashPointResult]:
        """Crash points where recovery was not exact (assert empty)."""
        return [result for result in self.results if not result.ok]

    def describe_failures(self) -> str:
        """A readable digest of every failing crash point."""
        lines = []
        for result in self.failures:
            reason = (
                "recovery produced different rules"
                if result.crashed
                else "SimulatedCrash was swallowed"
            )
            lines.append(
                f"op {result.op_index}/{self.total_ops} "
                f"({result.op} {result.path!r}): {reason}"
            )
        return "\n".join(lines) or "all crash points recovered exactly"


def count_storage_ops(run: Callable[[FaultyStorage], object]) -> int:
    """Run ``run`` once against a counting storage; return its op count."""
    probe = FaultyStorage()
    run(probe)
    return probe.op_count


def enumerate_crash_points(
    run: Callable[[FaultyStorage], object],
    recover: Optional[Callable[[FaultyStorage], object]] = None,
    expected: Optional[object] = None,
    max_points: Optional[int] = None,
) -> CrashPointReport:
    """Crash ``run`` at every storage operation; verify recovery each time.

    Parameters
    ----------
    run:
        The workload: takes a :class:`FaultyStorage` (inject it as the
        ``storage=`` of whatever is under test), returns the result to
        compare (e.g. a sorted rule list).  Must be restartable: each
        invocation begins a fresh logical run over the same directories,
        exactly like a process restarted after a crash.
    recover:
        The recovery path run after each crash (defaults to ``run``
        itself — a restart *is* the recovery path for checkpointed
        pipelines).  Always receives a fresh, fault-free storage.
    expected:
        The result every recovery must reproduce.  Defaults to the
        clean run's own result — pass the serial engine's output
        explicitly to pin recovery against an independent oracle.
    max_points:
        Bound the sweep for CI: at most this many crash points, evenly
        strided across the schedule (always including the first and
        last operation).  ``None`` sweeps every operation.

    The clean enumeration run happens first; its result must match
    ``expected`` when one is given (a mismatch raises ``ValueError``
    immediately — no point crashing a workload that is already wrong).
    Exceptions other than :class:`SimulatedCrash` propagate: a crash
    test must fail loudly when the workload breaks in unplanned ways.
    """
    probe = FaultyStorage()
    baseline = run(probe)
    if expected is None:
        expected = baseline
    elif baseline != expected:
        raise ValueError(
            "the clean run does not match the expected result; "
            "fix the workload before enumerating crashes"
        )
    total = probe.op_count
    report = CrashPointReport(total_ops=total, schedule=list(probe.op_log))
    if total == 0:
        return report

    if max_points is not None and max_points < total:
        if max_points < 2:
            indices = [total]
        else:
            step = (total - 1) / (max_points - 1)
            indices = sorted({round(1 + i * step) for i in range(max_points)})
    else:
        indices = list(range(1, total + 1))

    recover = recover if recover is not None else run
    for k in indices:
        crash_storage = FaultyStorage(crash_at=k)
        crashed = False
        survived_result = None
        try:
            survived_result = run(crash_storage)
        except SimulatedCrash:
            crashed = True
        op, path = ("", "")
        if 0 < k <= len(crash_storage.op_log):
            op, path = crash_storage.op_log[k - 1]
        if crashed:
            recovered = recover(FaultyStorage())
            recovered_equal = recovered == expected
        else:
            # The workload finished anyway (schedule drift or a
            # swallowed crash); its own result must still be exact,
            # and there is nothing to recover.
            recovered_equal = survived_result == expected
        report.results.append(
            CrashPointResult(
                op_index=k,
                op=op,
                path=path,
                crashed=crashed,
                recovered_equal=recovered_equal,
            )
        )
    return report
