"""Resource guards: disk preflight, I/O retry policy, SIGTERM unwinding.

Two storage failure modes threaten a long scan in production:

- transient I/O errors on the spill-bucket files (network filesystems,
  overloaded disks) aborting pass 2 outright; and
- the disk filling up mid-pass — which is *not* transient: retrying an
  ``ENOSPC`` just burns the backoff budget before dying anyway.

(The third, the counter array outgrowing memory, is the bitmap
switch's: ``repro.mine(..., memory_budget=N)`` sets
``BitmapConfig.hard_budget_bytes``, and a scan past it hands over to
the DMC-bitmap tail at once — the paper's own answer to memory
pressure, Algorithm 4.1.)

:func:`retry_io` retries a transient-failure-prone operation with
exponential backoff — but classifies errnos first: ``ENOSPC`` /
``EDQUOT`` / ``EROFS`` are terminal for the storage path and surface
immediately as a typed :class:`~repro.runtime.storage.StorageFull`,
while ``EIO`` / ``EAGAIN`` / other ``OSError``\\ s stay retryable.

:func:`ensure_disk_space` is the preflight half of the same idea: check
``disk_usage`` against the estimated spill footprint *before* pass 1,
so a run that cannot fit degrades early instead of dying mid-pass.

:func:`graceful_interrupts` turns SIGTERM into ``KeyboardInterrupt``
so a terminated run unwinds through the same ``finally`` blocks
(checkpoint flush, journal fsync) as an interrupted one.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Tuple

from repro.runtime.storage import (
    LOCAL_STORAGE,
    StorageFull,
    terminal_io_error,
)

#: Exception types retried by :func:`retry_io` by default.
TRANSIENT_ERRORS = (OSError,)

#: Safety factor applied to spill-footprint estimates by
#: :func:`ensure_disk_space` — bucket files carry the same tokens as
#: the input but the estimate is approximate, and filling a disk to the
#: last byte hurts every other tenant of the filesystem.
DISK_HEADROOM = 1.25


def backoff_delay(attempt: int, base_delay: float) -> float:
    """The exponential-backoff sleep before retry ``attempt`` (0-based).

    One schedule shared by every retry loop in the runtime —
    :func:`retry_io` for spill/checkpoint I/O and the job scheduler of
    :mod:`repro.service` for transient run failures — so their latency
    behavior is documented in one place: ``base_delay * 2**attempt``.
    """
    return base_delay * (2 ** attempt)


def retry_io(
    operation: Callable,
    attempts: int = 3,
    base_delay: float = 0.01,
    retry_on: Tuple[type, ...] = TRANSIENT_ERRORS,
    on_retry: Optional[Callable[[BaseException], None]] = None,
    on_giveup: Optional[Callable[[BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``operation`` with exponential backoff on *transient* errors.

    Retries only exceptions matching ``retry_on`` (``OSError`` by
    default — a :class:`repro.runtime.storage.SimulatedCrash` is *not*
    an ``OSError`` and always propagates immediately), and only when
    the errno is curable: a terminal errno (``ENOSPC`` / ``EDQUOT`` /
    ``EROFS``, see :func:`repro.runtime.storage.terminal_io_error`) is
    re-raised immediately as :class:`~repro.runtime.storage.
    StorageFull` so the caller degrades instead of backing off against
    a disk that will still be full afterwards.

    ``on_retry`` is invoked with the error before each backoff sleep;
    ``on_giveup`` with the error that is about to propagate (terminal
    or retries exhausted) — both let callers count errors into their
    stats and metrics.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    for attempt in range(attempts):
        try:
            return operation()
        except retry_on as error:
            if terminal_io_error(error):
                if on_giveup is not None:
                    on_giveup(error)
                if isinstance(error, StorageFull):
                    raise
                raise StorageFull(
                    getattr(error, "errno", None),
                    f"terminal storage fault (not retried): {error}",
                ) from error
            if attempt == attempts - 1:
                if on_giveup is not None:
                    on_giveup(error)
                raise
            if on_retry is not None:
                on_retry(error)
            sleep(backoff_delay(attempt, base_delay))


def estimate_spill_bytes(source=None, matrix=None) -> Optional[int]:
    """Bound the spill-bucket footprint of a pass-1 scan, in bytes.

    A bucket record (:class:`repro.matrix.stream.BucketSpill`) is a row
    count, then one length per row and one id per set bit; a spilled
    row holds at least one id, so each id costs at most an id and a
    length.  Each block of rows writes at most one record per bucket,
    and there are at most 31 buckets (row lengths are below 2**31).

    - A file-backed source spills at most one id per two bytes of the
      file (a token is a digit or more plus a separator; only the last
      one may lack it), in at most ``(size + 1) // PACK_ROWS + 2``
      blocks (``PACK_ROWS`` lines, or ``PARSE_CHUNK_CHARS`` characters,
      each): with 4-byte lengths and ids, 4 times the file's size.
    - An in-memory matrix (or a :class:`~repro.matrix.stream.
      MatrixSource`) spills its ``nnz`` ids in ``n_rows // PACK_ROWS +
      1`` blocks.
    - Anything else is unknowable without scanning: returns ``None``
      (the preflight is skipped rather than guessed).
    """
    from repro.matrix.stream import PACK_ROWS, RECORD_COUNT, RECORD_ID

    per_id = 2 * RECORD_ID.itemsize
    per_block = 31 * RECORD_COUNT.itemsize
    if matrix is None and source is not None:
        matrix = getattr(source, "_matrix", None)
    if matrix is not None:
        nnz = getattr(matrix, "nnz", None)
        if nnz is not None:
            blocks = matrix.n_rows // PACK_ROWS + 1
            return per_id * int(nnz) + per_block * blocks
    path = getattr(source, "path", None)
    if isinstance(path, str):
        try:
            size = os.path.getsize(path)
        except OSError:
            return None
        blocks = (size + 1) // PACK_ROWS + 2
        return per_id * ((size + 1) // 2) + per_block * blocks
    return None


def ensure_disk_space(
    directory: str,
    required_bytes: Optional[int],
    storage=None,
    headroom: float = DISK_HEADROOM,
) -> int:
    """Preflight guard: fail *now* if ``directory`` cannot fit a spill.

    Checks the filesystem's free bytes against ``required_bytes *
    headroom`` and raises :class:`~repro.runtime.storage.StorageFull`
    when they do not fit — the caller degrades to the in-memory engine
    before pass 1 writes a single bucket, instead of
    dying (or degrading with work wasted) mid-pass.  ``required_bytes=
    None`` (unknown footprint) passes trivially.  Returns the free
    bytes observed.
    """
    storage = storage if storage is not None else LOCAL_STORAGE
    probe = directory
    while probe and not os.path.isdir(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        free = storage.disk_usage(probe or os.curdir).free
    except OSError:
        return -1  # unknowable filesystem: do not block the run
    if required_bytes is not None and free < required_bytes * headroom:
        raise StorageFull(
            None,
            f"preflight: {directory} has {free} bytes free but the "
            f"spill needs ~{int(required_bytes * headroom)} "
            f"(estimate {required_bytes} x {headroom:.2f} headroom)",
        )
    return free


@contextmanager
def graceful_interrupts() -> Iterator[None]:
    """Convert SIGTERM into :class:`KeyboardInterrupt` while active.

    A terminated run then unwinds through the same ``finally`` blocks
    an interrupted one does — flushing checkpoints and journals instead
    of dying with them torn.  No-op off the main thread or where
    ``SIGTERM`` does not exist.
    """
    if (
        threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "SIGTERM")
    ):
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # non-main interpreter thread after all
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
