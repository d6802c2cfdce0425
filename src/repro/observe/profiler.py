"""Opt-in sampling wall-clock profiler emitting folded stacks.

Flamegraphs answer the question the paper's Section 5 tables answer
statically — *which phase dominates* — for one concrete run.  This
profiler is deliberately stdlib-only: a daemon thread wakes every
``interval`` seconds, reads the profiled thread's current frame via
:func:`sys._current_frames`, and folds the stack into a
``frame;frame;frame count`` histogram — the input format of Brendan
Gregg's ``flamegraph.pl`` and of speedscope's "folded" importer.

Sampling from a sibling thread (rather than a ``signal.setitimer``
handler) keeps the profiler usable off the main thread — scheduler
slots, service threads — and means a sample can never interrupt a
bytecode at an unsafe point: ``sys._current_frames`` returns a
consistent snapshot.  The profiled code pays nothing per line; total
cost is one stack walk per sample in the sampler thread.

Usage::

    with SamplingProfiler("run.folded") as profiler:
        mine(...)
    # run.folded now holds folded stacks; render with
    #   flamegraph.pl run.folded > run.svg

Wired through ``MiningConfig(profile=)`` / ``repro mine-* --profile``.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Optional

from repro.runtime.storage import LOCAL_STORAGE

#: Default seconds between samples — 100 Hz, the classic profiler
#: rate (perf, pprof).  Each wakeup costs the profiled thread a GIL
#: handoff, so the rate — not the per-sample fold — is what the CI
#: overhead gate actually bounds; 10 ms keeps it under the <5% budget
#: while still resolving per-phase hot spots on runs of seconds.
DEFAULT_INTERVAL = 0.010


def _fold_frame(frame) -> str:
    """Render one Python frame as a ``module:function`` flame segment."""
    module = frame.f_globals.get("__name__") or frame.f_code.co_filename
    name = frame.f_code.co_name
    # Semicolons separate stack levels in the folded format; a frame
    # label containing one would split the stack, so neutralize it.
    return f"{module}:{name}".replace(";", ",")


def fold_stack(frame) -> str:
    """The folded (root-first, ``;``-joined) form of a frame chain."""
    segments = []
    while frame is not None:
        segments.append(_fold_frame(frame))
        frame = frame.f_back
    return ";".join(reversed(segments))


class SamplingProfiler:
    """Wall-clock sampler for one thread, writing folded stacks.

    Parameters
    ----------
    path:
        Where the folded-stack file is written on :meth:`stop`
        (atomically, through the storage layer).  ``None`` collects
        in memory only — read :meth:`folded` yourself.
    interval:
        Seconds between samples.
    thread_ident:
        The thread to profile; defaults to the thread that calls
        :meth:`start` — which is the mining thread when the profiler
        is started by :func:`repro.mine`.
    storage:
        The :class:`~repro.runtime.storage.Storage` used for the
        final write.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        interval: float = DEFAULT_INTERVAL,
        thread_ident: Optional[int] = None,
        storage=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.path = path
        self.interval = interval
        self.thread_ident = thread_ident
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.counts: Dict[str, int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Begin sampling; returns self so ``start()`` chains."""
        if self._thread is not None:
            return self
        if self.thread_ident is None:
            self.thread_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop,
            name="repro-profiler",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> Optional[str]:
        """Stop sampling and write the folded file; returns its path."""
        thread, self._thread = self._thread, None
        if thread is None:
            return self.path
        self._stop.set()
        thread.join(timeout=5.0)
        if self.path is not None:
            self.storage.atomic_write_text(self.path, self.folded())
        return self.path

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------

    def _sample_loop(self) -> None:
        ident = self.thread_ident
        while not self._stop.wait(self.interval):
            try:
                frame = sys._current_frames().get(ident)
            except Exception:  # pragma: no cover - interpreter teardown
                return
            if frame is None:  # profiled thread finished
                continue
            stack = fold_stack(frame)
            del frame
            self.counts[stack] = self.counts.get(stack, 0) + 1
            self.samples += 1

    # -- output --------------------------------------------------------

    def folded(self) -> str:
        """The collected samples in folded-stack format."""
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(self.counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(samples={self.samples}, "
            f"stacks={len(self.counts)})"
        )
