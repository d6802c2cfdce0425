"""The injectable storage layer: every durable byte goes through here.

The paper's exactness guarantee is only as strong as the bytes the
runtime can trust after a fault.  The *logical* recovery paths
(checkpoint resume, job-index recovery) are exact, but the physical write discipline had holes: spill buckets were never
fsynced before a manifest referenced them, the parent directory was not
fsynced after ``os.replace`` (a rename can vanish on power loss), and a
disk-full error was retried like a transient glitch.  This module
closes those holes behind one small abstraction:

- :class:`Storage` — the protocol every durable I/O call uses: opens,
  fsyncs (file *and* directory), atomic replace, remove, recursive
  delete, checksums, ``disk_usage``.  The composite
  :meth:`Storage.atomic_write_text` encodes the full discipline —
  temp file, write, fsync, ``replace``, fsync of the parent directory —
  so a crash at any instruction leaves either the old file or the new
  one, durably.
- :class:`LocalStorage` — the default, backed by ``os``/``shutil``.
  ``durable=False`` skips the physical fsyncs (benchmark baseline and
  tests only; the recovery logic is unchanged).
- :class:`FaultyStorage` — the test double: counts every storage
  operation (the substrate of :mod:`repro.runtime.crashpoints`' ALICE
  style crash-point enumeration), can crash the "process" at operation
  *k* (:class:`SimulatedCrash` on every operation from *k* on — a
  dead process never touches the disk again), and can inject
  errno-coded failures (``ENOSPC``, ``EIO``, ...) at matching
  operations via :class:`StorageFault`.  It is the runtime's only
  fault harness: transient errors, disk-full and crashes at any
  durable step are all injected here.

Errno classification lives here too: :func:`terminal_io_error` decides
whether an ``OSError`` can ever be cured by retrying.  ``ENOSPC`` /
``EDQUOT`` / ``EROFS`` cannot — the disk is full or read-only, and
burning a backoff budget on it just delays the degradation the caller
should take instead.  :func:`repro.runtime.guards.retry_io` converts
those into the typed :class:`StorageFull` so the pipelines can catch
one exception type and walk their degradation ladder, whose every rung
is taken through :func:`degrade`.
"""

from __future__ import annotations

import errno
import hashlib
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Errnos that no amount of retrying will cure: the storage path is
#: out of space (ENOSPC), over quota (EDQUOT) or read-only (EROFS).
TERMINAL_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
        errno.EROFS,
    )
    if code is not None
)


#: The degradation ladder: each rung a storage fault can force, with
#: the warning it raises.  The rules stay exact on every rung.
LADDER = {
    "spill-to-memory": "spill failed; redoing the run in memory",
    "checkpoint-off": "checkpointing disabled",
    "journal-off": "run journal disabled",
    "profile-off": "profile not written",
}


class SimulatedCrash(RuntimeError):
    """An injected process death (never retried, never caught internally)."""


class StorageFull(OSError):
    """A terminal storage fault (disk full / quota / read-only).

    Raised instead of retrying when an I/O error's errno is in
    :data:`TERMINAL_ERRNOS`; callers degrade (spill falls back to the
    in-memory engine, checkpoint/journal switch off with a warning)
    instead of aborting the mine.
    """


def terminal_io_error(error: BaseException) -> bool:
    """True when ``error`` is an ``OSError`` no retry can cure."""
    if isinstance(error, StorageFull):
        return True
    return (
        isinstance(error, OSError)
        and getattr(error, "errno", None) in TERMINAL_ERRNOS
    )


def io_error_kind(error: BaseException) -> str:
    """A short label for an I/O error, for the ``dmc_io_errors_total``
    metric: the errno name (``ENOSPC``, ``EIO``, ...) when one is set,
    else the exception class name."""
    code = getattr(error, "errno", None)
    if code is not None:
        return errno.errorcode.get(code, str(code))
    return type(error).__name__


def degrade(stats, observer, path: str, error: BaseException) -> None:
    """Take the :data:`LADDER` rung ``path`` because of ``error``.

    The one record of a degradation: it lands in
    ``stats.degradations`` (in order), in the observer's
    ``dmc_io_errors_total`` / ``dmc_degradations_total`` metrics, its
    journal's ``degradation`` event and progress line, and in a
    ``RuntimeWarning``.
    """
    stats.degradations.append(path)
    if observer.enabled:
        observer.on_io_error(io_error_kind(error))
        observer.on_degradation(path)
    warnings.warn(f"{LADDER[path]}: {error}", RuntimeWarning, stacklevel=3)


class Storage:
    """The durable-I/O protocol (also the shared implementation).

    Every primitive calls :meth:`_before` with an operation name and
    the path first — a no-op here, the counting/fault hook in
    :class:`FaultyStorage`.  Subclasses override :meth:`_before` (and,
    for exotic backends, the primitives themselves).

    Operation names seen by :meth:`_before`: ``open-read``,
    ``open-write``, ``fsync``, ``fsync-dir``, ``replace``, ``link``,
    ``remove``, ``makedirs``, ``rmtree``, ``sha256``.  Metadata reads
    (``exists``,
    ``getsize``, ``disk_usage``) are not counted — they cannot change
    the on-disk state, so a crash before one is indistinguishable from
    a crash before the next mutating operation.
    """

    #: False skips the physical fsync syscalls (benchmarks/tests only).
    durable = True

    def _before(self, op: str, path: str) -> None:
        """Hook called before every storage operation."""

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def open(self, path: str, mode: str = "r", encoding: Optional[str] = None):
        """Open ``path``; counted as ``open-read`` or ``open-write``."""
        op = "open-read" if "r" in mode and "+" not in mode else "open-write"
        self._before(op, path)
        return open(path, mode, encoding=encoding)

    def fsync(self, handle) -> None:
        """Flush and fsync an open file handle."""
        self._before("fsync", getattr(handle, "name", "<handle>"))
        handle.flush()
        if self.durable:
            os.fsync(handle.fileno())

    def fsync_dir(self, path: str) -> None:
        """fsync a directory, making renames within it durable.

        Platforms (or filesystems) that cannot open/fsync a directory
        are tolerated silently — the rename itself is still atomic,
        which is the crash-consistency half of the guarantee.
        """
        self._before("fsync-dir", path)
        if not self.durable:
            return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``, then fsync the parent
        directory so the rename survives power loss."""
        self._before("replace", dst)
        os.replace(src, dst)
        self.fsync_dir(os.path.dirname(os.path.abspath(dst)))

    def link(self, src: str, dst: str) -> bool:
        """Hard-link ``src`` to ``dst`` — the create-*exclusive* rename.

        Unlike :meth:`replace`, a link never overwrites: if ``dst``
        already exists the call returns ``False`` and the filesystem is
        untouched.  This is the first-writer-wins primitive the service
        result commit is built on — two writers racing to publish the
        same deterministic result cannot clobber each other; exactly
        one link lands and the loser observes the dedup.
        The parent directory is fsynced after a winning link so the new
        name survives power loss.
        """
        self._before("link", dst)
        try:
            os.link(src, dst)
        except FileExistsError:
            return False
        self.fsync_dir(os.path.dirname(os.path.abspath(dst)))
        return True

    def remove(self, path: str, missing_ok: bool = True) -> None:
        """Delete a file; a missing one is fine by default."""
        self._before("remove", path)
        try:
            os.remove(path)
        except FileNotFoundError:
            if not missing_ok:
                raise

    def makedirs(self, path: str) -> None:
        """Create ``path`` (and parents); existing is fine."""
        self._before("makedirs", path)
        os.makedirs(path, exist_ok=True)

    def rmtree(self, path: str) -> None:
        """Recursively delete ``path``, ignoring errors (cleanup)."""
        self._before("rmtree", path)
        shutil.rmtree(path, ignore_errors=True)

    def sha256_file(self, path: str) -> str:
        """The SHA-256 hex digest of a file's contents."""
        self._before("sha256", path)
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
        return digest.hexdigest()

    # Metadata reads: not counted (see class docstring).

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> List[str]:
        """Directory entries (names, unsorted); [] for a missing dir.

        A metadata read, like :meth:`exists` — it cannot change the
        on-disk state, so it is not counted as a storage operation.
        """
        try:
            return os.listdir(path)
        except FileNotFoundError:
            return []

    def getsize(self, path: str) -> int:
        return os.path.getsize(path)

    def disk_usage(self, path: str):
        """``shutil.disk_usage`` for the filesystem holding ``path``."""
        return shutil.disk_usage(path)

    # ------------------------------------------------------------------
    # Composites
    # ------------------------------------------------------------------

    def atomic_write_text(self, path: str, text: str) -> None:
        """The full durable-write discipline for a small file.

        Write to ``path + ".tmp"``, fsync it, ``replace`` it over
        ``path``, fsync the parent directory.  A crash at any point
        leaves either the previous ``path`` or the new one — never a
        torn file, and never a rename that evaporates with the page
        cache.  A failed write cleans its temp file up.
        """
        tmp_path = path + ".tmp"
        try:
            handle = self.open(tmp_path, "w", encoding="utf-8")
            try:
                handle.write(text)
                self.fsync(handle)
            finally:
                handle.close()
            self.replace(tmp_path, path)
        except OSError:
            try:
                os.remove(tmp_path)  # raw: best-effort, never counted
            except OSError:
                pass
            raise

    def create_exclusive_text(self, path: str, text: str) -> bool:
        """Durably publish ``path`` only if nobody else has yet.

        Write to a writer-unique temp file, fsync it, then hard-link it
        to ``path``: the link either lands (True — this writer won) or
        hits an existing ``path`` (False — another writer already
        published; ours is discarded untouched).  Either way the temp
        file is cleaned up.  The existing ``path`` is **never**
        modified — that immutability is what makes duplicate result
        delivery (a recovered job racing a straggler) safe to dedup.
        """
        tmp_path = f"{path}.tmp-{os.getpid()}-{id(self) & 0xFFFF:04x}"
        try:
            handle = self.open(tmp_path, "w", encoding="utf-8")
            try:
                handle.write(text)
                self.fsync(handle)
            finally:
                handle.close()
            won = self.link(tmp_path, path)
        except OSError:
            try:
                os.remove(tmp_path)  # raw: best-effort, never counted
            except OSError:
                pass
            raise
        try:
            os.remove(tmp_path)  # raw: best-effort, never counted
        except OSError:
            pass
        return won


class LocalStorage(Storage):
    """The default storage: the local filesystem via ``os``/``shutil``.

    ``durable=False`` turns the physical fsyncs into no-ops — used by
    the benchmark baseline to price the durability discipline, and by
    tests that do not care about power loss.  Everything else (atomic
    replace, cleanup, checksums) is identical.
    """

    def __init__(self, durable: bool = True) -> None:
        self.durable = durable

    def __repr__(self) -> str:
        return f"LocalStorage(durable={self.durable})"


#: Shared default instance used wherever ``storage=None`` is passed.
LOCAL_STORAGE = LocalStorage()


@dataclass
class StorageFault:
    """One scheduled errno-coded storage failure.

    Matches storage operations by name (``op``, None = any) and path
    substring (``path_contains``, None = any); among the matching
    operations, calls ``first .. first + count - 1`` (1-based) fail
    with ``OSError(code)``.  ``count=None`` fails forever — the
    realistic shape of a full disk, which does not heal between
    retries.
    """

    op: Optional[str] = None
    path_contains: Optional[str] = None
    code: int = errno.ENOSPC
    first: int = 1
    count: Optional[int] = None
    #: Matching operations seen so far (internal).
    matched: int = 0

    def trip(self, op: str, path: str) -> bool:
        """Count a matching operation; True when it should fail."""
        if self.op is not None and self.op != op:
            return False
        if self.path_contains is not None and self.path_contains not in path:
            return False
        self.matched += 1
        if self.matched < self.first:
            return False
        return self.count is None or self.matched < self.first + self.count

    def raise_(self, op: str, path: str) -> None:
        raise OSError(
            self.code,
            f"injected {errno.errorcode.get(self.code, self.code)} "
            f"at storage op {op!r}",
            path,
        )


class FaultyStorage(LocalStorage):
    """A :class:`LocalStorage` that counts, crashes, and fails to order.

    - Every operation is appended to :attr:`op_log` (``(op, path)``)
      and counted in :attr:`op_count` — run a workload once against a
      plain ``FaultyStorage()`` to enumerate its storage operations.
    - ``crash_at=k`` raises :class:`SimulatedCrash` on operation ``k``
      *and every operation after it*: once the simulated process is
      dead, no cleanup code gets to touch the disk either, which is
      exactly the state a real crash leaves behind.
    - ``faults`` is a sequence of :class:`StorageFault`; the first
      matching fault wins.
    """

    def __init__(
        self,
        crash_at: Optional[int] = None,
        faults: Tuple[StorageFault, ...] = (),
        durable: bool = True,
    ) -> None:
        super().__init__(durable=durable)
        if crash_at is not None and crash_at < 1:
            raise ValueError("crash_at is a 1-based operation index")
        self.crash_at = crash_at
        self.faults = list(faults)
        self.op_count = 0
        self.op_log: List[Tuple[str, str]] = []
        self.crashed = False
        #: Injected errno failures actually raised, by errno name.
        self.errors_raised: Dict[str, int] = {}

    def _before(self, op: str, path: str) -> None:
        self.op_count += 1
        self.op_log.append((op, path))
        if self.crash_at is not None and self.op_count >= self.crash_at:
            self.crashed = True
            raise SimulatedCrash(
                f"storage crash at operation {self.op_count} "
                f"({op} {path!r})"
            )
        for fault in self.faults:
            if fault.trip(op, path):
                name = errno.errorcode.get(fault.code, str(fault.code))
                self.errors_raised[name] = self.errors_raised.get(name, 0) + 1
                fault.raise_(op, path)

    def __repr__(self) -> str:
        return (
            f"FaultyStorage(ops={self.op_count}, crash_at={self.crash_at}, "
            f"faults={len(self.faults)})"
        )
