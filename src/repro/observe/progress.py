"""Progress-observer callback protocol for live runs.

The scan engine reports through a tiny callback protocol so that a
disabled observer costs the hot loop exactly one truthy attribute
check per row (``if observer.enabled:``).  :class:`ProgressObserver`
defines the hooks (all no-ops, so subclasses override only what they
care about), :class:`NullObserver` is the always-disabled null object
the engine defaults to, and :class:`ConsoleProgress` is a
ready-made sink that prints a throttled progress line to a stream
(the CLI's ``--progress`` flag).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO


class ProgressObserver:
    """Callback protocol for watching a mining run.

    Subclass and override the hooks you need; every hook has a no-op
    default.  Set :attr:`enabled` to False to tell the engine to skip
    the calls entirely.  A plain ProgressObserver can itself be passed
    as ``observer=`` to the mining entry points — the tracing/metrics
    extensions (:class:`repro.observe.RunObserver`) share this
    interface.
    """

    #: The engine checks this once per row; False skips every hook.
    enabled = True

    @contextmanager
    def phase(self, name: str, timer=None) -> Iterator[None]:
        """A top-level pipeline phase; emits the phase start/end hooks.

        ``timer`` (a :class:`repro.core.stats.PhaseTimer`) accumulates
        the phase's seconds: the one clock reading the end hook sees.
        """
        if self.enabled:
            self.on_phase_start(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            if timer is not None:
                timer.add(name, seconds)
            if self.enabled:
                self.on_phase_end(name, seconds)

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[None]:
        """A nested timed region; plain observers do not record these."""
        yield

    def annotate(self, **attributes) -> None:
        """Attach attributes to the innermost open span (tracers only)."""

    def finish(self, stats=None) -> None:
        """Fold a completed run's measurements (metric observers only)."""

    def on_phase_start(self, name: str) -> None:
        """A pipeline phase (pre-scan, 100%-rules, ...) began."""

    def on_phase_end(self, name: str, seconds: float) -> None:
        """A pipeline phase finished after ``seconds``."""

    def on_row(
        self,
        position: int,
        total: int,
        entries: int,
        memory_bytes: int,
        scan: str = "",
    ) -> None:
        """One row of the second scan was processed.

        ``position`` is the 0-based scan-order index, ``total`` the
        number of rows the scan will read, ``entries`` the live
        candidate count and ``memory_bytes`` the modelled counter-array
        size after the row.  ``scan`` names the running pass (the
        engine leaves it empty; wrapping observers fill it from the
        current phase).
        """

    def on_bitmap_switch(self, position: int, scan: str = "") -> None:
        """The scan handed over to the DMC-bitmap tail at ``position``."""

    def on_guard_trip(self, position: int, scan: str = "") -> None:
        """The hard budget forced an early hand-over at ``position``."""

    def on_bucket(self, name: str, rows: int) -> None:
        """Pass 2 started replaying spill bucket ``name`` (``rows`` rows)."""

    def on_retry(self, site: str) -> None:
        """A transient I/O error at ``site`` is being retried."""

    def on_io_error(self, kind: str) -> None:
        """A storage I/O error occurred (``kind`` is the errno name,
        e.g. ``"ENOSPC"``, or the exception class name)."""

    def on_degradation(self, path: str) -> None:
        """A storage fault forced a degradation: ``path`` names the
        ladder step taken (``"spill-to-memory"``, ``"checkpoint-off"``,
        ``"journal-off"`` or ``"profile-off"``, the keys of
        :data:`repro.runtime.storage.LADDER`).  Rules stay exact on
        every step."""

    def on_curve_sample(
        self,
        rows_scanned: int,
        live_candidates: int,
        cumulative_misses: int,
        rules_emitted: int,
        scan: str = "",
    ) -> None:
        """A pruning-curve point was sampled (every N rows + scan end)."""


class NullObserver(ProgressObserver):
    """The disabled observer: the engine pays one attribute check."""

    enabled = False


#: Shared singleton used as the default observer everywhere.
NULL_OBSERVER = NullObserver()


#: Minimum seconds between row-progress lines on a non-TTY stream.
NON_TTY_MIN_INTERVAL = 1.0


class ConsoleProgress(ProgressObserver):
    """Print a throttled one-line progress report to a stream.

    ``every`` controls the row granularity (a report every N rows plus
    one at the end of each scan); phase transitions and bitmap/guard
    events are always reported.

    When the stream is not a TTY (CI logs, redirected stderr) row
    lines are additionally rate-limited to one per
    ``min_interval`` seconds and written line-buffered (no per-line
    flush), so a fast scan cannot flood a log collector.  Event and
    phase lines are always flushed.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        every: int = 1000,
        min_interval: Optional[float] = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.stream = stream if stream is not None else sys.stderr
        self.every = every
        self._phase = "scan"
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False
        if min_interval is None:
            min_interval = 0.0 if self._tty else NON_TTY_MIN_INTERVAL
        self.min_interval = min_interval
        self._last_row_emit = 0.0

    def _emit(self, message: str) -> None:
        print(message, file=self.stream, flush=True)

    def _emit_row_line(self, message: str) -> None:
        """Row lines: rate-limited and unflushed on non-TTY streams."""
        if self.min_interval:
            now = time.monotonic()
            if now - self._last_row_emit < self.min_interval:
                return
            self._last_row_emit = now
        print(message, file=self.stream, flush=self._tty)

    def on_phase_start(self, name: str) -> None:
        self._phase = name
        self._emit(f"[repro] phase {name} ...")

    def on_phase_end(self, name: str, seconds: float) -> None:
        self._emit(f"[repro] phase {name} done in {seconds:.3f}s")

    def on_row(
        self,
        position: int,
        total: int,
        entries: int,
        memory_bytes: int,
        scan: str = "",
    ) -> None:
        if (position + 1) % self.every and position + 1 != total:
            return
        self._emit_row_line(
            f"[repro] {scan or self._phase}: row {position + 1}/{total} "
            f"candidates={entries} memory={memory_bytes}B"
        )

    def on_bitmap_switch(self, position: int, scan: str = "") -> None:
        self._emit(
            f"[repro] {scan or self._phase}: bitmap tail took over at "
            f"row {position}"
        )

    def on_guard_trip(self, position: int, scan: str = "") -> None:
        self._emit(
            f"[repro] {scan or self._phase}: memory guard tripped at "
            f"row {position}"
        )

    def on_bucket(self, name: str, rows: int) -> None:
        self._emit(f"[repro] replaying bucket {name} ({rows} rows)")

    def on_retry(self, site: str) -> None:
        self._emit(f"[repro] retrying transient I/O failure at {site}")

    def on_io_error(self, kind: str) -> None:
        self._emit(f"[repro] storage I/O error ({kind})")

    def on_degradation(self, path: str) -> None:
        self._emit(
            f"[repro] storage fault: degrading via {path} "
            "(rules stay exact)"
        )
