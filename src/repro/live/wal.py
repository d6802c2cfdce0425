"""The durable write-ahead delta log of the live miner.

One append batch = one segment file ``wal/delta-<seq>.json`` written
through :meth:`repro.runtime.storage.Storage.atomic_write_text`
(write-temp + fsync + atomic rename + parent-dir fsync), so segment
*existence* is the commit marker: a crash at any storage operation
leaves either the previous committed prefix or the next one, never a
torn segment.

Exactly-once application falls out of the sequence discipline:

- batches carry client-assigned monotonic sequence numbers starting
  at 1;
- the *watermark* is the largest contiguous committed sequence,
  recomputed from the directory listing on every open (no separate
  pointer file to desync);
- re-submitting a committed sequence is a no-op answered with an
  explicit ``duplicate`` status — after verifying the payload matches
  the committed bytes (:class:`DeltaMismatch` otherwise, because a
  client re-using a sequence number for *different* rows is data
  corruption, not a retry);
- a sequence beyond ``watermark + 1`` is rejected with
  :class:`OutOfOrderDelta` so a gap can never be committed.

Segments are chained by SHA-256 (each records the previous segment's
digest), giving restarts a fingerprint to verify a snapshot against;
a mismatch is an invariant breach that makes the miner journal a
``live-degrade`` and rebuild at the watermark (see
:mod:`repro.live.miner`) rather than trust the snapshot.

Segments are retained indefinitely — they are the only copy of the
rows, which every restart rebuilds from.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.storage import LOCAL_STORAGE, Storage

SEGMENT_VERSION = 1
SEGMENT_PREFIX = "delta-"
SEGMENT_SUFFIX = ".json"
SEGMENT_DIGITS = 8

#: Chain digest of the empty log (sequence 0).
GENESIS_SHA = hashlib.sha256(b"dmc-live-wal-genesis").hexdigest()


class DeltaLogError(ValueError):
    """Base class of every typed delta-log rejection."""


class OutOfOrderDelta(DeltaLogError):
    """A submitted sequence number would leave a gap in the log."""

    def __init__(self, seq: int, expected: int) -> None:
        super().__init__(
            f"delta seq {seq} is out of order: the next committable "
            f"sequence is {expected}"
        )
        self.seq = seq
        self.expected = expected


class DeltaMismatch(DeltaLogError):
    """A committed sequence was re-submitted with different rows."""

    def __init__(self, seq: int) -> None:
        super().__init__(
            f"delta seq {seq} is already committed with different "
            f"rows; sequence numbers must never be re-used"
        )
        self.seq = seq


@dataclass(frozen=True)
class AppendResult:
    """Outcome of one :meth:`DeltaLog.append`."""

    seq: int
    #: ``committed`` for a fresh append, ``duplicate`` for the
    #: idempotent no-op re-submit of an already-committed sequence.
    status: str
    watermark: int
    rows: int

    @property
    def duplicate(self) -> bool:
        return self.status == "duplicate"


def _normalize_rows(rows: Sequence[Sequence[str]]) -> List[List[str]]:
    normalized = []
    for row in rows:
        if isinstance(row, (str, bytes)):
            raise DeltaLogError(
                "each delta row must be a list of labels, not a string"
            )
        normalized.append([str(label) for label in row])
    return normalized


def _rows_digest(prev_sha: str, rows: List[List[str]]) -> str:
    payload = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(
        prev_sha.encode("ascii") + b"\n" + payload
    ).hexdigest()


class DeltaLog:
    """The append-only, crash-consistent delta log of one live run."""

    def __init__(self, root: str, storage: Optional[Storage] = None) -> None:
        self.root = str(root)
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.storage.makedirs(self.root)
        self._sha_cache: Dict[int, str] = {0: GENESIS_SHA}
        self._watermark = self._scan_watermark()

    # -- layout --------------------------------------------------------

    def segment_path(self, seq: int) -> str:
        name = f"{SEGMENT_PREFIX}{seq:0{SEGMENT_DIGITS}d}{SEGMENT_SUFFIX}"
        return os.path.join(self.root, name)

    def _scan_watermark(self) -> int:
        seqs = set()
        for name in self.storage.listdir(self.root):
            if not (
                name.startswith(SEGMENT_PREFIX)
                and name.endswith(SEGMENT_SUFFIX)
            ):
                continue
            stem = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
            try:
                seqs.add(int(stem))
            except ValueError:
                continue
        watermark = 0
        while watermark + 1 in seqs:
            watermark += 1
        return watermark

    @property
    def watermark(self) -> int:
        """Largest contiguous committed sequence (0 for an empty log)."""
        return self._watermark

    # -- reads ---------------------------------------------------------

    def _load(self, seq: int) -> Tuple[List[List[str]], str]:
        with self.storage.open(
            self.segment_path(seq), "r", encoding="utf-8"
        ) as handle:
            document = json.load(handle)
        if document.get("seq") != seq:
            raise DeltaLogError(
                f"segment {seq} carries wrong sequence "
                f"{document.get('seq')!r}"
            )
        rows = document["rows"]
        sha = str(document["sha"])
        self._sha_cache[seq] = sha
        return rows, sha

    def read(self, seq: int) -> List[List[str]]:
        """The rows of one committed segment."""
        if not 1 <= seq <= self._watermark:
            raise DeltaLogError(
                f"segment {seq} is not committed (watermark "
                f"{self._watermark})"
            )
        return self._load(seq)[0]

    def chain_sha(self, seq: int) -> str:
        """The chain digest as of ``seq`` (``seq=0`` is the genesis)."""
        if seq == 0:
            return GENESIS_SHA
        cached = self._sha_cache.get(seq)
        if cached is not None:
            return cached
        return self._load(seq)[1]

    def iter_rows(
        self, upto: Optional[int] = None
    ) -> Iterator[Tuple[int, List[List[str]]]]:
        """Yield ``(seq, rows)`` for every committed segment up to
        ``upto`` (default: the watermark) — the replay source."""
        last = self._watermark if upto is None else min(upto, self._watermark)
        for seq in range(1, last + 1):
            yield seq, self._load(seq)[0]

    # -- append --------------------------------------------------------

    def append(
        self, seq: int, rows: Sequence[Sequence[str]]
    ) -> AppendResult:
        """Durably commit one batch; exactly-once by sequence number."""
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            raise DeltaLogError(
                f"delta seq must be a positive integer, got {seq!r}"
            )
        normalized = _normalize_rows(rows)
        if seq <= self._watermark:
            committed, committed_sha = self._load(seq)
            offered = _rows_digest(self.chain_sha(seq - 1), normalized)
            if offered != committed_sha or committed != normalized:
                raise DeltaMismatch(seq)
            return AppendResult(
                seq=seq, status="duplicate",
                watermark=self._watermark, rows=len(normalized),
            )
        if seq != self._watermark + 1:
            raise OutOfOrderDelta(seq, self._watermark + 1)
        sha = _rows_digest(self.chain_sha(seq - 1), normalized)
        document = {
            "version": SEGMENT_VERSION,
            "seq": seq,
            "sha": sha,
            "rows": normalized,
        }
        # The atomic write is the commit point: after its rename +
        # dir-fsync the segment exists durably, before it nothing does.
        self.storage.atomic_write_text(
            self.segment_path(seq),
            json.dumps(document, separators=(",", ":")),
        )
        self._watermark = seq
        self._sha_cache[seq] = sha
        return AppendResult(
            seq=seq, status="committed",
            watermark=seq, rows=len(normalized),
        )


class SnapshotStore:
    """Durable state snapshots, atomically replaced, never required.

    A snapshot is pure optimization: recovery without one replays the
    whole WAL through the same deterministic apply path.  ``load``
    therefore treats anything unreadable as *absent* — the caller
    falls back to a full replay — while a snapshot that parses but
    contradicts the WAL chain digest is reported as a mismatch so the
    miner can take the journalled degradation path.
    """

    FILENAME = "snapshot.json"

    def __init__(self, root: str, storage: Optional[Storage] = None) -> None:
        self.root = str(root)
        self.storage = storage if storage is not None else LOCAL_STORAGE
        self.storage.makedirs(self.root)
        self.path = os.path.join(self.root, self.FILENAME)

    def save(self, document: Dict[str, object]) -> None:
        self.storage.atomic_write_text(
            self.path, json.dumps(document, separators=(",", ":"))
        )

    def load(self) -> Optional[Dict[str, object]]:
        if not self.storage.exists(self.path):
            return None
        try:
            with self.storage.open(
                self.path, "r", encoding="utf-8"
            ) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        return document if isinstance(document, dict) else None
