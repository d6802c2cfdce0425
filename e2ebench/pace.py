"""Host-speed normalisation of the end-to-end timings.

The 2-core host the benchmark was written on is shared, and its speed
changes under the benchmark: a fixed piece of Python takes anywhere
from 1x to 2x its fastest time, flipping within a second and drifting
in phases that last minutes, and process CPU time grows with it.  Raw
wall times of the same work then spread by 20-45% across runs, which
no number of rounds inside a 15-second run can average away.

So every end-to-end time is *paced*: while the timed call runs, an
interval timer interrupts it every 50 ms to time a short fixed probe,
and the call's time is scaled by how fast the probe ran::

    paced seconds = (seconds - probe time inside) x PROBE_SECONDS / mean(probe times)

``PROBE_SECONDS`` is the probe's time when that host runs at full speed,
so a paced value reads as seconds there.  Five probes before and five
after the call are averaged in too, which is all a call shorter than
the interval gets.  The probe does the dict, tuple and integer work the
miners do, on data of its own.

Sampling inside the call is what makes this work for calls of a second
or more.  Over 15-second windows of a noisy hour, the spread of three
mines of 0.5 to 3.5 s was 0.22-0.37 raw, 0.09-0.16 when paced by
probes before and after the call only, and 0.05 when paced by probes
inside it too.

The probe time inside the call is taken out of its time, so the
sampler's own cost (about 3%) is not reported.  The program cannot
make the probe slower or faster except by leaving work running in the
benchmark process, so a change that makes the program slower makes
its paced times slower by the same share.  The timer is armed only
around the call and only in the main thread, which is where the
benchmark calls the program; the signal handler runs between
bytecodes, so a long call into native code is sampled when it returns.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter
from typing import Callable, List, Sequence, Tuple, TypeVar

#: The fixed rows the probe counts and sorts.
_ROWS = [
    tuple((i * 7919 + j * 104729) % 4099 for j in range(8))
    for i in range(1200)
]

#: The probe's time at full speed on the 2-core x86_64 host the
#: committed results come from (Python 3.11.7); paced values read as
#: seconds there.
PROBE_SECONDS = 0.0017

#: Seconds between probes inside a timed call.
INTERVAL_SECONDS = 0.05

#: Probes run before and after each timed call.
EDGE_PROBES = 5

T = TypeVar("T")


def probe() -> float:
    """Seconds one run of the probe takes now (~1.7 ms at full speed)."""
    started = perf_counter()
    counts: dict = {}
    for row in _ROWS:
        for column in row:
            counts[column] = counts.get(column, 0) + 1
    sorted(_ROWS)
    x = 0
    for i in range(8000):
        x = (x + i * i) & 0xFFFF
    return perf_counter() - started


def edge_probes() -> List[float]:
    """:data:`EDGE_PROBES` probe times, taken now."""
    return [probe() for _ in range(EDGE_PROBES)]


def pace(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured while the probe took ``probes``, as seconds
    at full speed."""
    return seconds * PROBE_SECONDS / mean(probes)


def paced(call: Callable[[], T]) -> Tuple[float, T]:
    """Run ``call`` (in the main thread) with the probe sampling the
    host's speed; returns ``(paced seconds, output)``.  An exception
    from ``call`` propagates."""
    inside: List[float] = []

    def sample(signum, frame) -> None:
        inside.append(probe())

    before = edge_probes()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS, INTERVAL_SECONDS)
    try:
        started = perf_counter()
        output = call()
        seconds = perf_counter() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    probes = before + inside + edge_probes()
    return pace(seconds - sum(inside), probes), output
