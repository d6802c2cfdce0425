"""Two-pass streaming over on-disk transaction data (Sections 3-4).

The paper's algorithms are explicitly *two-pass*: the first scan counts
``ones(c_i)`` and — instead of sorting, which would be expensive —
spills each row into one of at most ``ceil(log2(m)) + 1`` density
bucket files (Section 4.1); the second scan reads the bucket files
sparsest-first.  This module reproduces that pipeline for data too
large to hold as a :class:`BinaryMatrix`:

- :class:`TransactionSource` — anything that can be iterated twice,
  yielding rows of column ids;
- :class:`FileSource` — the transactions text format of
  :mod:`repro.matrix.io` read lazily;
- :class:`MatrixSource` — an in-memory matrix behind the same interface;
- :class:`BucketSpill` — the first-scan bucket writer (temp files);
- :func:`stream_implication_rules` / :func:`stream_similarity_rules` —
  the full two-pass pipelines over a source.

The streamed pipelines produce exactly the rules of their in-memory
counterparts; the tests assert it.

Resilience (see :mod:`repro.runtime`):

- pass ``checkpoint_dir=`` to persist the pass-1 state (``ones[]`` +
  checksummed spill buckets) and let a re-run *resume at pass 2* after
  a crash — stale or corrupted checkpoints are detected and the run
  falls back to a full rescan;
- attach a :class:`repro.runtime.validation.RowValidator` to a
  :class:`FileSource` / :class:`IterableSource` to survive malformed
  rows under a ``strict`` / ``skip`` / ``clamp`` policy;
- pass ``bitmap=BitmapConfig(hard_budget_bytes=N)`` to cap the counter
  array's memory (pass 2 hands over to the DMC-bitmap tail past it);
- spill-bucket reads retry transient I/O errors with backoff, and the
  whole pipeline is instrumented with fault-injection sites
  (:mod:`repro.runtime.faults`);
- all durable I/O (bucket files, checkpoint manifest) goes through an
  injectable :class:`repro.runtime.storage.Storage` — pass ``storage=``
  to substitute a :class:`~repro.runtime.storage.FaultyStorage` in
  tests, or ``LocalStorage(durable=False)`` to benchmark without the
  physical fsyncs;
- a *terminal* storage fault (disk full / quota / read-only — see
  :class:`repro.runtime.storage.StorageFull`) walks the degradation
  ladder instead of aborting: a failed checkpoint write switches
  checkpointing **off with a warning** and the mine continues, a failed
  spill write redoes the run on the **in-memory engine** (exact same
  rules; disable with ``spill_degrade=False``).  ``preflight=True``
  checks ``disk_usage`` against the estimated spill footprint before
  pass 1 writes a single bucket.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.core.dmc_imp import PruningOptions, mine_matrix, mine_passes
from repro.core.miss_counting import BitmapConfig
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats
from repro.core.thresholds import as_fraction
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.ops import RowBlocks
from repro.matrix.reorder import bucket_index
from repro.observe.progress import NULL_OBSERVER
from repro.runtime import faults
from repro.runtime.checkpoint import (
    CheckpointError,
    CheckpointStore,
    Pass1Checkpoint,
    source_fingerprint,
)
from repro.runtime.guards import (
    ensure_disk_space,
    estimate_spill_bytes,
    graceful_interrupts,
    retry_io,
)
from repro.runtime.storage import (
    LOCAL_STORAGE,
    StorageFull,
    io_error_kind,
    terminal_io_error,
)
from repro.runtime.validation import RowValidator


class SourceNotReiterableError(RuntimeError):
    """A source yielded rows once and then came back empty.

    Raised by :class:`IterableSource` when a second iteration produces
    zero rows after a non-empty first one — the signature of wrapping a
    single-shot generator.  Without this guard the second pass would
    silently mine an empty rule set.
    """


class TransactionSource:
    """A re-iterable source of rows (each a tuple of column ids)."""

    def iter_rows(self) -> Iterator[Tuple[int, ...]]:
        """Yield every row; must be repeatable (two passes)."""
        raise NotImplementedError

    def n_columns(self) -> Optional[int]:
        """The column-universe size, if known up front."""
        return None


class MatrixSource(TransactionSource):
    """Adapt an in-memory :class:`BinaryMatrix` to the interface."""

    def __init__(self, matrix: BinaryMatrix) -> None:
        self._matrix = matrix

    def iter_rows(self) -> Iterator[Tuple[int, ...]]:
        for _, row in self._matrix.iter_rows():
            yield row

    def n_columns(self) -> Optional[int]:
        return self._matrix.n_columns


class IterableSource(TransactionSource):
    """Wrap a re-iterable of rows (e.g. a list of tuples).

    An optional :class:`RowValidator` is applied to every row (rows are
    numbered from 1 for diagnostics).  Wrapping a single-shot generator
    is detected on the second iteration and raises
    :class:`SourceNotReiterableError` instead of silently yielding
    nothing.
    """

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        columns: Optional[int] = None,
        validator: Optional[RowValidator] = None,
    ) -> None:
        self._rows = rows
        self._columns = columns
        self.validator = validator
        self._last_iteration_rows: Optional[int] = None

    def iter_rows(self) -> Iterator[Tuple[int, ...]]:
        yielded = 0
        for row_number, row in enumerate(self._rows, start=1):
            if self.validator is None:
                normalized: Optional[Tuple[int, ...]] = tuple(
                    sorted(set(int(c) for c in row))
                )
            else:
                normalized = self.validator.validate_row(
                    row, line_number=row_number, source="iterable source"
                )
            if normalized is None:
                continue
            yielded += 1
            yield normalized
        if self._last_iteration_rows and not yielded:
            raise SourceNotReiterableError(
                "source is not re-iterable: the previous pass yielded "
                f"{self._last_iteration_rows} rows but this pass yielded "
                "none — wrap rows in a list (or a re-iterable) instead "
                "of a single-shot generator"
            )
        self._last_iteration_rows = yielded

    def n_columns(self) -> Optional[int]:
        return self._columns


class FileSource(TransactionSource):
    """Lazily stream a transactions text file (numeric ids only).

    The file may carry the :mod:`repro.matrix.io` header lines; label
    vocabularies are not supported in streaming mode (resolve labels up
    front instead).  The leading header block is parsed eagerly at
    construction time, so a declared ``#columns`` count is available to
    pre-size the pass-1 counts array before the first iteration.

    An optional :class:`RowValidator` decides what happens to malformed
    lines (diagnostics carry the 1-based line number and the path);
    without one, any garbage token raises a plain ``ValueError``.
    """

    def __init__(
        self, path: str, validator: Optional[RowValidator] = None
    ) -> None:
        self.path = path
        self.validator = validator
        self._columns: Optional[int] = None
        self._read_header()

    def _read_header(self) -> None:
        """Parse the leading ``#``-comment block for ``#columns``."""
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.startswith("#"):
                    break
                if line.startswith("#columns "):
                    self._columns = int(line[len("#columns "):])
                    break

    def iter_rows(self) -> Iterator[Tuple[int, ...]]:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if line.startswith("#columns "):
                    self._columns = int(line[len("#columns "):])
                    continue
                if line.startswith("#"):
                    continue
                if not line:
                    yield ()
                    continue
                tokens = line.split()
                if self.validator is None:
                    yield tuple(sorted(set(int(t) for t in tokens)))
                    continue
                row = self.validator.validate_tokens(
                    tokens, line_number=line_number, source=self.path
                )
                if row is not None:
                    yield row

    def n_columns(self) -> Optional[int]:
        return self._columns


class BucketSpill:
    """First-scan density bucketing into spill files.

    Rows are appended to the bucket file for their density range
    ``[2**i, 2**(i+1))`` as they stream past; ``read_sparsest_first``
    then replays them bucket by bucket.  Use as a context manager so
    the files are always cleaned up.

    Two modes:

    - **temporary** (default): buckets live in a fresh temp directory
      that :meth:`close` removes entirely — including any stray files
      left behind by a crashed reader;
    - **durable** (``durable=True``): buckets are written directly into
      the given directory and *survive* :meth:`close`; this is how the
      checkpointed pipelines persist pass-1 state for resume.

    Bucket reads go through :func:`repro.runtime.guards.retry_io` (the
    ``"spill.open"`` fault site), so transient I/O errors back off and
    retry instead of killing pass 2.  All file operations route through
    ``storage`` (a :class:`repro.runtime.storage.Storage`; the local
    filesystem by default).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        durable: bool = False,
        storage=None,
    ) -> None:
        self.storage = storage if storage is not None else LOCAL_STORAGE
        if durable:
            if directory is None:
                raise ValueError("a durable spill needs an explicit directory")
            self.storage.makedirs(directory)
            self._directory = directory
        else:
            if directory is not None:
                self.storage.makedirs(directory)
            self._directory = tempfile.mkdtemp(
                prefix="dmc-buckets-", dir=directory
            )
        self._durable = durable
        self._delete_on_close = not durable
        self._handles: List[TextIO] = []
        self._paths: List[str] = []
        self._rows_per_bucket: List[int] = []
        self._writable = True
        self._closed = False
        self.rows_spilled = 0
        self.io_retries = 0
        #: Observer notified of bucket replays and I/O retries; the
        #: streaming pipelines set this before pass 2.
        self.observer = NULL_OBSERVER

    @classmethod
    def from_checkpoint(
        cls, directory: str, checkpoint: Pass1Checkpoint, storage=None
    ) -> "BucketSpill":
        """Reopen (read-only) the buckets recorded in a verified
        pass-1 checkpoint."""
        spill = cls(directory=directory, durable=True, storage=storage)
        spill._paths = [
            os.path.join(directory, bucket.name)
            for bucket in checkpoint.buckets
        ]
        spill._rows_per_bucket = [
            bucket.rows for bucket in checkpoint.buckets
        ]
        spill.rows_spilled = checkpoint.rows_spilled
        spill._writable = False
        return spill

    def __enter__(self) -> "BucketSpill":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def add(self, row: Tuple[int, ...]) -> None:
        """Spill one non-empty row to its density bucket.

        A failed write removes the partial bucket file before the error
        propagates — a truncated bucket must never survive to fail the
        checkpoint's fingerprint check on resume (and the caller is
        about to degrade or die anyway).
        """
        if not self._writable:
            raise RuntimeError("spill is finished or closed (read-only)")
        if not row:
            return
        bucket = bucket_index(len(row))
        while bucket >= len(self._handles):
            path = os.path.join(
                self._directory, f"bucket-{len(self._handles):02d}.txt"
            )
            handle = self.storage.open(path, "w", encoding="utf-8")
            self._paths.append(path)
            self._handles.append(handle)
            self._rows_per_bucket.append(0)
        try:
            self._handles[bucket].write(" ".join(map(str, row)) + "\n")
        except OSError:
            self._discard_partial(bucket)
            raise
        self._rows_per_bucket[bucket] += 1
        self.rows_spilled += 1

    def _discard_partial(self, bucket: int) -> None:
        """Drop a bucket whose write failed: close the handle and remove
        the truncated file (best effort — the disk may be the problem).
        The spill is no longer writable; the run degrades or dies."""
        self._writable = False
        try:
            self._handles[bucket].close()
        except OSError:
            pass
        try:
            self.storage.remove(self._paths[bucket], missing_ok=True)
        except OSError:
            pass
        del self._handles[bucket]
        del self._paths[bucket]
        del self._rows_per_bucket[bucket]

    @property
    def n_buckets(self) -> int:
        """Number of bucket files materialized so far."""
        return len(self._paths)

    def bucket_files(self) -> List[Tuple[str, str, int]]:
        """``(name, path, rows)`` per bucket, sparsest first — the shape
        :meth:`repro.runtime.checkpoint.CheckpointStore.save_pass1`
        expects."""
        return [
            (os.path.basename(path), path, self._rows_per_bucket[index])
            for index, path in enumerate(self._paths)
        ]

    def finish(self) -> None:
        """Flush, fsync and close the write handles, keeping the files.

        Call after pass 1 so checksums (and readers) see the complete
        bucket contents; the spill becomes read-only.  Durable spills
        fsync every bucket here, *before* the checkpoint manifest
        records their checksums — the manifest must only ever reference
        bytes that survive a power cut.
        """
        self._writable = False
        errors = []
        for handle in self._handles:
            try:
                if self._durable:
                    self.storage.fsync(handle)
            except OSError as error:
                errors.append(error)
            try:
                handle.close()
            except OSError as error:
                errors.append(error)
        self._handles = []
        if errors:
            raise errors[0]

    def read_sparsest_first(self) -> Iterator[Tuple[int, ...]]:
        """Replay all spilled rows, sparsest bucket first."""
        for handle in self._handles:
            handle.flush()
        for index, path in enumerate(self._paths):
            if self.observer.enabled:
                self.observer.on_bucket(
                    os.path.basename(path),
                    self._rows_per_bucket[index]
                    if index < len(self._rows_per_bucket)
                    else 0,
                )
            handle = retry_io(
                lambda path=path: self._open_bucket(path),
                on_retry=self._note_retry,
                on_giveup=self._note_giveup,
            )
            with handle:
                for line in handle:
                    yield tuple(int(token) for token in line.split())

    def _open_bucket(self, path: str) -> TextIO:
        faults.trip("spill.open")
        return self.storage.open(path, "r", encoding="utf-8")

    def _note_retry(self, error: BaseException) -> None:
        self.io_retries += 1
        if self.observer.enabled:
            self.observer.on_retry("spill.open")
            self.observer.on_io_error(io_error_kind(error))

    def _note_giveup(self, error: BaseException) -> None:
        if self.observer.enabled:
            self.observer.on_io_error(io_error_kind(error))

    def close(self) -> None:
        """Release the spill: close every handle, then clean up.

        Idempotent.  Every handle is closed even if an earlier close
        raises (the first error is re-raised at the end), and temporary
        spill directories are removed recursively — stray files from a
        crashed reader cannot strand the directory on disk.  Durable
        spills keep their files (the checkpoint store owns them).
        """
        if self._closed:
            return
        self._closed = True
        self._writable = False
        errors = []
        for handle in self._handles:
            try:
                handle.close()
            except OSError as error:
                errors.append(error)
        self._handles = []
        self._paths = []
        if self._delete_on_close:
            try:
                self.storage.rmtree(self._directory)
            except OSError:
                pass  # cleanup on a faulted disk is best effort
        if errors:
            raise errors[0]


def _first_scan(
    source: TransactionSource, spill: BucketSpill
) -> List[int]:
    """Pass 1: count ones per column while spilling rows to buckets."""
    counts: List[int] = []
    declared = source.n_columns()
    if declared:
        counts = [0] * declared
    for row in source.iter_rows():
        faults.trip("pass1.row")
        for column in row:
            if column >= len(counts):
                counts.extend([0] * (column + 1 - len(counts)))
            counts[column] += 1
        spill.add(row)
    return counts


def _spill_rows(spill: BucketSpill, observer):
    """Pass 2's row source (a :data:`repro.core.dmc_imp.RowSource`).

    Every pass replays the bucket files sparsest-first, straight into
    the vector scan in blocks (:class:`RowBlocks`) — nothing is
    materialized except what the scan holds — and drops the columns
    outside ``keep`` on the fly.  Spill I/O retries are charged to the
    pass that hit them.
    """
    spill.observer = observer

    def rows_for(keep, scan_stats):
        def replay():
            retries = spill.io_retries
            for row_id, row in enumerate(spill.read_sparsest_first()):
                faults.trip("pass2.row")
                if spill.io_retries != retries:
                    scan_stats.io_retries += spill.io_retries - retries
                    retries = spill.io_retries
                if keep is not None:
                    row = tuple(c for c in row if c in keep)
                yield row_id, row

        return RowBlocks(replay()), spill.rows_spilled

    return rows_for


def _record_validation(
    source: TransactionSource,
    stats: PipelineStats,
    skipped_before: int,
    clamped_before: int,
) -> None:
    """Copy this run's validator counters into the pipeline stats."""
    validator = getattr(source, "validator", None)
    if validator is None:
        return
    stats.hundred_percent_scan.rows_skipped += (
        validator.rows_skipped - skipped_before
    )
    stats.hundred_percent_scan.rows_clamped += (
        validator.rows_clamped - clamped_before
    )


def _note_degradation(stats, observer, path: str, error: BaseException) -> None:
    """Record one degradation into the stats and the observer."""
    stats.degradations.append(path)
    if observer.enabled:
        observer.on_io_error(io_error_kind(error))
        observer.on_degradation(path)


def _checkpoint_off(stats, observer, error: OSError) -> None:
    """The checkpoint ladder step: re-raise a curable ``error``, else
    record ``"checkpoint-off"`` and warn; the caller then mines on
    without resume protection (it drops its store)."""
    if not terminal_io_error(error):
        raise error
    _note_degradation(stats, observer, "checkpoint-off", error)
    warnings.warn(
        f"checkpointing disabled: {error}", RuntimeWarning, stacklevel=3
    )


def _in_memory_fallback(
    source: TransactionSource,
    threshold,
    kind: str,
    options: PruningOptions,
    stats: PipelineStats,
    observer,
) -> RuleSet:
    """Redo a mine entirely in memory (the spill degradation target).

    Materializes the source as a :class:`BinaryMatrix` and runs the
    in-memory pipeline on the same vector scan — the exact same rules,
    no disk beyond the source itself.
    """
    matrix = getattr(source, "_matrix", None)
    if matrix is None:
        matrix = BinaryMatrix(
            source.iter_rows(), n_columns=source.n_columns()
        )
    with observer.span("in-memory-fallback"):
        return mine_matrix(
            kind, matrix, threshold, options, stats, observer, "vector"
        )


def _stream_rules(
    source: TransactionSource,
    threshold,
    kind: str,
    options: PruningOptions,
    spill_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
    storage=None,
    spill_degrade: bool = True,
    preflight: bool = False,
) -> RuleSet:
    """The shared two-pass pipeline behind both stream entry points.

    ``kind`` is a :data:`repro.core.dmc_imp.TASKS` key and ``options``
    the full :class:`~repro.core.dmc_imp.PruningOptions`; pass 2 is the
    one DMC phase sequence on the vector scan, so every ablation toggle
    applies (the spill buckets *are* the Section 4.1 reordering, so
    ``row_reordering`` has no effect here).

    Runs under :func:`repro.runtime.guards.graceful_interrupts`:
    SIGTERM unwinds like Ctrl-C, so the spill buckets close and the
    pass-1 checkpoint (written *before* pass 2 starts) survives for
    the next run to resume from.

    A terminal storage fault while spilling (disk full / read-only)
    abandons the on-disk attempt and — unless ``spill_degrade=False`` —
    redoes the run on the in-memory engine; the stats are reset so they
    describe the run that actually produced the rules, with the
    degradation recorded in ``stats.degradations``.
    """
    threshold = as_fraction(threshold)
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER
    try:
        return _stream_rules_on_disk(
            source, threshold, kind, options, spill_dir,
            checkpoint_dir, stats, observer, storage, preflight,
        )
    except OSError as error:
        if not terminal_io_error(error):
            raise
        if not spill_degrade:
            if isinstance(error, StorageFull):
                raise
            raise StorageFull(*error.args) from error
        stats.__init__()  # the aborted attempt's numbers would mislead
        _note_degradation(stats, observer, "spill-to-memory", error)
        warnings.warn(
            f"streaming spill hit a terminal storage fault "
            f"({io_error_kind(error)}); redoing the run in memory",
            RuntimeWarning,
            stacklevel=2,
        )
        return _in_memory_fallback(
            source, threshold, kind, options, stats, observer
        )


def _stream_rules_on_disk(
    source: TransactionSource,
    threshold,
    kind: str,
    options: PruningOptions,
    spill_dir: Optional[str],
    checkpoint_dir: Optional[str],
    stats: PipelineStats,
    observer,
    storage,
    preflight: bool,
) -> RuleSet:
    """One on-disk two-pass attempt (checkpointing degrades to off in
    place; terminal spill faults propagate to :func:`_stream_rules`)."""
    validator = getattr(source, "validator", None)
    skipped_before = validator.rows_skipped if validator else 0
    clamped_before = validator.rows_clamped if validator else 0

    store: Optional[CheckpointStore] = None
    spill: Optional[BucketSpill] = None
    ones: Optional[List[int]] = None
    fingerprint = params = None
    if checkpoint_dir is not None:
        fingerprint = source_fingerprint(source)
        params = {"kind": kind, "threshold": str(threshold)}
        try:
            store = CheckpointStore(
                checkpoint_dir, observer=observer, storage=storage
            )
            try:
                with observer.span("checkpoint-load"):
                    checkpoint = store.load_pass1(fingerprint, params)
            except CheckpointError:
                # Stale or corrupted: discard and rescan from scratch.
                store.clear()
                checkpoint = None
            if checkpoint is not None:
                spill = BucketSpill.from_checkpoint(
                    store.buckets_directory, checkpoint, storage=storage
                )
                ones = list(checkpoint.ones)
        except OSError as error:
            # The checkpoint directory is unusable (full/read-only);
            # mine without checkpointing rather than fail the run.
            _checkpoint_off(stats, observer, error)
            store = None
            spill = None
            ones = None

    if preflight and spill is None:
        if store is not None:
            target = store.buckets_directory
        else:
            target = spill_dir if spill_dir is not None else tempfile.gettempdir()
        ensure_disk_space(
            target, estimate_spill_bytes(source=source), storage=storage
        )

    try:
        with graceful_interrupts():
            if spill is None:
                if store is not None:
                    try:
                        spill = BucketSpill(
                            directory=store.prepare_buckets(),
                            durable=True,
                            storage=storage,
                        )
                    except OSError as error:
                        # The checkpoint directory cannot take the
                        # buckets; spill somewhere temporary instead
                        # and mine without resume protection.
                        _checkpoint_off(stats, observer, error)
                        store = None
                if spill is None:
                    spill = BucketSpill(directory=spill_dir, storage=storage)
                with observer.phase("pre-scan", stats.timer):
                    ones = _first_scan(source, spill)
                _record_validation(source, stats, skipped_before, clamped_before)
                if store is not None:
                    try:
                        spill.finish()
                        with observer.span("checkpoint-save"):
                            store.save_pass1(
                                ones,
                                spill.bucket_files(),
                                spill.rows_spilled,
                                fingerprint,
                                params,
                            )
                    except OSError as error:
                        # The buckets are written and readable — only
                        # their durable checkpoint failed.  Finish the
                        # mine without resume protection.
                        _checkpoint_off(stats, observer, error)
                        store = None
                        spill._delete_on_close = True
            rules = mine_passes(
                kind, threshold, ones, _spill_rows(spill, observer),
                options, "vector", stats, observer,
            )
    finally:
        if spill is not None:
            spill.close()

    if store is not None:
        # The run completed; the checkpoint has served its purpose.  A
        # failed delete must not lose the rules: clear() removes the
        # manifest first, so a leftover is orphan buckets (the next
        # run's prepare_buckets clears them) or a whole checkpoint
        # (load_pass1 verifies it before any resume).
        try:
            store.clear()
        except OSError as error:
            warnings.warn(
                f"could not remove the finished checkpoint: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
    return rules


def stream_implication_rules(
    source: TransactionSource,
    minconf,
    bitmap: Optional[BitmapConfig] = None,
    spill_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
    storage=None,
    spill_degrade: bool = True,
    preflight: bool = False,
) -> RuleSet:
    """Two-pass DMC-imp over a streaming source.

    Pass 1 counts column frequencies and spills rows to density-bucket
    files; pass 2 replays the buckets sparsest-first through the
    100%-rule and <100% scans, both on the blocked numpy engine
    (:mod:`repro.core.vector`).  Equivalent to
    :func:`repro.core.dmc_imp.find_implication_rules`.

    With ``checkpoint_dir`` the pass-1 state is persisted there (see
    :mod:`repro.runtime.checkpoint`): a crash after pass 1 resumes at
    pass 2 on the next call with the same directory, source and
    threshold, and the resumed run produces the identical rule set.
    ``bitmap`` is the DMC-bitmap switch (off by default); its
    ``hard_budget_bytes`` caps the counter array.  ``stats`` collects the
    same :class:`PipelineStats` the in-memory pipeline fills, plus
    validation/retry counters.  ``observer`` (any
    :class:`repro.observe.ProgressObserver`) additionally sees bucket
    replays, checkpoint save/load spans and I/O retries.

    ``storage`` substitutes the durable-I/O backend
    (:class:`repro.runtime.storage.Storage`; local filesystem by
    default).  On a terminal storage fault (disk full / read-only) the
    run degrades instead of aborting: checkpointing switches off with a
    warning, and a failed spill redoes the run on the in-memory engine
    — identical rules either way (``spill_degrade=False`` re-raises the
    :class:`~repro.runtime.storage.StorageFull` instead).
    ``preflight=True`` checks free disk space against the estimated
    spill footprint before pass 1 starts.
    """
    options = PruningOptions(bitmap=bitmap)
    return _stream_rules(
        source, minconf, "implication", options, spill_dir,
        checkpoint_dir, stats, observer, storage, spill_degrade, preflight,
    )


def stream_similarity_rules(
    source: TransactionSource,
    minsim,
    bitmap: Optional[BitmapConfig] = None,
    spill_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
    storage=None,
    spill_degrade: bool = True,
    preflight: bool = False,
) -> RuleSet:
    """Two-pass DMC-sim over a streaming source.

    Equivalent to :func:`repro.core.dmc_sim.find_similarity_rules`.
    Checkpointing, validation, the bitmap switch, stats, observer,
    storage and the degradation ladder behave exactly as in
    :func:`stream_implication_rules`.
    """
    options = PruningOptions(bitmap=bitmap)
    return _stream_rules(
        source, minsim, "similarity", options, spill_dir,
        checkpoint_dir, stats, observer, storage, spill_degrade, preflight,
    )
