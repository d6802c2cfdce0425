"""Checkpoint/resume for the two-pass streaming pipelines.

Pass 1 of :mod:`repro.matrix.stream` is the expensive part of a large
run: it reads the entire source to count ``ones(c_i)`` and spill every
row into density buckets.  A crash anywhere after that point used to
throw all of it away.  This module persists exactly the pass-1 state —
the ``ones[]`` counts plus a manifest of the spill buckets (name, row
count, byte size, SHA-256) — so a re-run can *resume at pass 2*.

Safety properties:

- **Atomicity** — the manifest is written to a temp file, fsynced and
  ``os.replace``d into place, so a crash during checkpointing leaves
  either the previous manifest or none, never a torn one.
- **Staleness detection** — the manifest records a fingerprint of the
  source (path/size/mtime for files) and the mining parameters; a
  mismatch on load raises :class:`CheckpointStale` and the caller
  rescans from scratch.
- **Corruption detection** — every bucket file is verified against its
  recorded size and checksum before being trusted; a truncated or
  altered bucket raises :class:`CheckpointCorrupted`.

The checkpoint directory layout::

    <dir>/manifest.json      # atomic, written after pass 1 completes
    <dir>/buckets/bucket-NN.bin   # binary records, see BucketSpill

- **Durability** — every file operation goes through the injectable
  :class:`repro.runtime.storage.Storage` layer: bucket files are
  fsynced *before* their checksums enter the manifest (see
  :meth:`repro.matrix.stream.BucketSpill.finish`), the manifest is
  fsynced before the rename, and the parent directory is fsynced after
  it — the rename itself survives power loss.

Writes run through :func:`repro.runtime.guards.retry_io`; a terminal
storage fault
(disk full/read-only) surfaces as :class:`repro.runtime.storage.
StorageFull` so the pipeline can degrade to checkpoint-off instead of
aborting.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.guards import retry_io
from repro.runtime.storage import (
    LOCAL_STORAGE,
    io_error_kind,
    terminal_io_error,
)

#: Bump when the manifest schema or the bucket format changes; older
#: checkpoints become stale (version 2: binary bucket records).
CHECKPOINT_VERSION = 2

_MANIFEST_NAME = "manifest.json"
_BUCKETS_SUBDIR = "buckets"


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures."""


class CheckpointStale(CheckpointError):
    """The checkpoint does not match the current source or parameters."""


class CheckpointCorrupted(CheckpointError):
    """The manifest or a bucket file fails verification."""


@dataclass(frozen=True)
class BucketRecord:
    """One spill bucket as recorded in the manifest."""

    name: str
    rows: int
    size_bytes: int
    sha256: str


@dataclass(frozen=True)
class Pass1Checkpoint:
    """The persisted outcome of the first streaming pass."""

    ones: List[int]
    rows_spilled: int
    buckets: List[BucketRecord]


def source_fingerprint(source) -> Dict[str, object]:
    """A cheap identity for a transaction source, for staleness checks.

    File-backed sources are fingerprinted by absolute path, size and
    mtime; anything else falls back to class name plus declared column
    count (weaker, but still catches obvious mismatches).
    """
    path = getattr(source, "path", None)
    if isinstance(path, str) and os.path.exists(path):
        stat = os.stat(path)
        return {
            "kind": "file",
            "path": os.path.abspath(path),
            "size": stat.st_size,
            "mtime_ns": stat.st_mtime_ns,
        }
    columns = None
    n_columns = getattr(source, "n_columns", None)
    if callable(n_columns):
        columns = n_columns()
    return {"kind": type(source).__name__, "columns": columns}


class CheckpointStore:
    """Owns one checkpoint directory (manifest + durable spill buckets)."""

    def __init__(self, directory: str, observer=None, storage=None,
                 stats=None) -> None:
        self.directory = directory
        #: Pass 1's :class:`repro.core.stats.ScanStats`: its
        #: ``io_retries`` counts each retried save fault (None: nowhere).
        self.stats = stats
        #: Observer notified of manifest-write retries (any
        #: :class:`repro.observe.ProgressObserver`); None disables.
        self.observer = observer
        #: All durable I/O goes through this (:class:`repro.runtime.
        #: storage.Storage`); None means the local filesystem.
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.storage.makedirs(directory)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    @property
    def buckets_directory(self) -> str:
        return os.path.join(self.directory, _BUCKETS_SUBDIR)

    def has_checkpoint(self) -> bool:
        """True when a manifest exists (not yet verified)."""
        return os.path.exists(self.manifest_path)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def prepare_buckets(self) -> str:
        """Reset the buckets directory for a fresh pass 1.

        Also invalidates any existing manifest first, so a crash during
        pass 1 can never pair an old manifest with new bucket files.
        """
        self._remove_manifest()
        self.storage.rmtree(self.buckets_directory)
        self.storage.makedirs(self.buckets_directory)
        return self.buckets_directory

    def clear(self) -> None:
        """Delete the checkpoint (manifest and buckets), keeping the
        directory itself."""
        self._remove_manifest()
        self.storage.rmtree(self.buckets_directory)

    def _remove_manifest(self) -> None:
        for path in (self.manifest_path, self.manifest_path + ".tmp"):
            self.storage.remove(path, missing_ok=True)

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------

    def save_pass1(
        self,
        ones: Sequence[int],
        bucket_files: Sequence[Tuple[str, str, int]],
        rows_spilled: int,
        fingerprint: Dict[str, object],
        params: Dict[str, object],
    ) -> None:
        """Persist the pass-1 state atomically.

        ``bucket_files`` is a sequence of ``(name, path, rows)`` as
        returned by :meth:`repro.matrix.stream.BucketSpill.bucket_files`;
        the files must already be flushed *and fsynced* (see
        :meth:`~repro.matrix.stream.BucketSpill.finish`) — the manifest
        must never reference bytes that could still evaporate with the
        page cache.  Checksums are computed here, after the fsync, so
        they describe what is actually on the platter.
        """
        buckets = retry_io(
            lambda: [
                {
                    "name": name,
                    "rows": rows,
                    "size_bytes": self.storage.getsize(path),
                    "sha256": self.storage.sha256_file(path),
                }
                for name, path, rows in bucket_files
            ],
            on_retry=self._note_retry,
            on_giveup=self._note_giveup,
        )
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "params": params,
            "ones": np.asarray(ones).tolist(),
            "rows_spilled": rows_spilled,
            "buckets": buckets,
        }
        retry_io(
            lambda: self.storage.atomic_write_text(
                self.manifest_path, json.dumps(payload)
            ),
            on_retry=self._note_retry,
            on_giveup=self._note_giveup,
        )

    def _note_retry(self, error: BaseException) -> None:
        if self.stats is not None:
            self.stats.io_retries += 1
        if self.observer is not None and self.observer.enabled:
            self.observer.on_retry("checkpoint.save")
            self.observer.on_io_error(io_error_kind(error))

    def _note_giveup(self, error: BaseException) -> None:
        # A terminal fault takes a ladder rung, and ``storage.degrade``
        # counts it there; an exhausted retry propagates, so count it.
        observer = self.observer
        if (
            observer is not None and observer.enabled
            and not terminal_io_error(error)
        ):
            observer.on_io_error(io_error_kind(error))

    def load_pass1(
        self,
        fingerprint: Dict[str, object],
        params: Dict[str, object],
    ) -> Optional[Pass1Checkpoint]:
        """Load and fully verify the checkpoint.

        Returns ``None`` when no checkpoint exists; raises
        :class:`CheckpointStale` on a fingerprint/parameter/version
        mismatch and :class:`CheckpointCorrupted` when the manifest or
        a bucket file fails verification.
        """
        if not self.has_checkpoint():
            return None
        try:
            with self.storage.open(
                self.manifest_path, "r", encoding="utf-8"
            ) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise CheckpointCorrupted(
                f"unreadable checkpoint manifest: {error}"
            ) from error
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointStale(
                f"checkpoint version {payload.get('version')!r} != "
                f"{CHECKPOINT_VERSION}"
            )
        if payload.get("fingerprint") != fingerprint:
            raise CheckpointStale("source changed since the checkpoint")
        if payload.get("params") != params:
            raise CheckpointStale(
                "mining parameters changed since the checkpoint"
            )
        try:
            buckets = [
                BucketRecord(
                    name=entry["name"],
                    rows=int(entry["rows"]),
                    size_bytes=int(entry["size_bytes"]),
                    sha256=entry["sha256"],
                )
                for entry in payload["buckets"]
            ]
            ones = [int(value) for value in payload["ones"]]
            rows_spilled = int(payload["rows_spilled"])
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointCorrupted(
                f"malformed checkpoint manifest: {error}"
            ) from error
        for bucket in buckets:
            path = os.path.join(self.buckets_directory, bucket.name)
            if not self.storage.exists(path):
                raise CheckpointCorrupted(
                    f"spill bucket {bucket.name} is missing"
                )
            try:
                size = self.storage.getsize(path)
                if size != bucket.size_bytes:
                    raise CheckpointCorrupted(
                        f"spill bucket {bucket.name} is truncated or grew "
                        f"({size} bytes, expected {bucket.size_bytes})"
                    )
                if self.storage.sha256_file(path) != bucket.sha256:
                    raise CheckpointCorrupted(
                        f"spill bucket {bucket.name} fails its checksum"
                    )
            except OSError as error:
                raise CheckpointCorrupted(
                    f"spill bucket {bucket.name} is unreadable: {error}"
                ) from error
        return Pass1Checkpoint(
            ones=ones, rows_spilled=rows_spilled, buckets=buckets
        )

    def __repr__(self) -> str:
        state = "present" if self.has_checkpoint() else "absent"
        return f"CheckpointStore({self.directory!r}, manifest {state})"
