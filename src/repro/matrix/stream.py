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

Rows travel from the source to the scan as CSR blocks ``(lengths,
cols)``, the block contract of :class:`repro.core.vector.MatrixBlocks`:
a source's :meth:`~TransactionSource.iter_rows` returns a
:class:`RowStream` whose ``blocks`` pass 1 reads (a file is parsed a
bounded chunk of characters at a time, with numpy), each block is
counted with one ``bincount`` and spilled as one binary record per
density bucket, and pass 2 replays the records straight into the
vector scan, dropping step 3's removed columns with a mask.  No row
becomes a tuple on that path.

The streamed pipelines produce exactly the rules of their in-memory
counterparts; the tests assert it.

Resilience (see :mod:`repro.runtime`):

- pass ``checkpoint_dir=`` to persist the pass-1 state (``ones[]`` +
  checksummed spill buckets) and let a re-run *resume at pass 2* after
  a crash — stale or corrupted checkpoints are detected and the run
  falls back to a full rescan;
- attach a :class:`repro.runtime.validation.RowValidator` to a
  :class:`FileSource` / :class:`IterableSource` to survive malformed
  rows under a ``strict`` / ``skip`` / ``clamp`` policy; without one a
  garbage token, or a column id outside ``[0, 2**31)``, fails pass 1
  with a ``ValueError`` before the bad row reaches the spill;
- pass ``bitmap=BitmapConfig(hard_budget_bytes=N)`` to cap the counter
  array's memory (pass 2 hands over to the DMC-bitmap tail past it);
- spill-bucket reads retry transient I/O errors with backoff;
- all durable I/O (bucket files, checkpoint manifest) goes through an
  injectable :class:`repro.runtime.storage.Storage` — pass ``storage=``
  to substitute a :class:`~repro.runtime.storage.FaultyStorage` (the
  test suite's one fault harness: errno faults and crashes at any
  storage operation), or ``LocalStorage(durable=False)`` to benchmark
  without the physical fsyncs;
- a *terminal* storage fault (disk full / quota / read-only — see
  :class:`repro.runtime.storage.StorageFull`) walks the degradation
  ladder instead of aborting: a failed checkpoint write switches
  checkpointing **off** and the mine continues, a failed spill write
  redoes the run on the **in-memory engine** (exact same rules); each
  rung is recorded by :func:`repro.runtime.storage.degrade`.
  ``preflight=True`` checks ``disk_usage`` against the estimated spill
  footprint before pass 1 writes a single bucket (a shortfall takes
  the spill rung at once).
"""

from __future__ import annotations

import itertools
import os
import tempfile
import warnings
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.dmc_imp import PruningOptions, mine_matrix, mine_passes
from repro.core.miss_counting import BitmapConfig
from repro.core.rules import ID_LIMIT, RuleSet
from repro.core.stats import PipelineStats
from repro.core.thresholds import as_fraction
from repro.matrix.binary_matrix import (
    BinaryMatrix,
    _csr_entries,
    _offsets_of,
    concat_ranges,
)
from repro.matrix.io import columns_of, read_header
from repro.matrix.reorder import bucket_indices
from repro.observe.progress import NULL_OBSERVER
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
    degrade,
    io_error_kind,
    terminal_io_error,
)
from repro.runtime.validation import RowValidator

#: A CSR block of rows: int64 ``(lengths, cols)``, row ``i`` being the
#: next ``lengths[i]`` column ids of ``cols``.
Block = Tuple[np.ndarray, np.ndarray]

#: Characters of a transactions file parsed at a time (a constant, not
#: a knob): pass 1 holds one chunk and its arrays, whatever the file's
#: size.
PARSE_CHUNK_CHARS = 1 << 18

#: Rows per block where rows come one at a time (an iterable source, a
#: validator) or from an in-memory matrix.
PACK_ROWS = 1 << 12

#: A spill-bucket record is its row count, then that many row lengths,
#: then their column ids, all little-endian (ids are below 2**31).
RECORD_COUNT = np.dtype("<i8")
RECORD_ID = np.dtype("<i4")

# ``str.split()``'s separators: ``_SPACE[c]`` is ``chr(c).isspace()``
# for every code point up to U+3001; past U+3000 nothing is a space.
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[
    *range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
    *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
]] = True

# Decimal digits a token may have and still be parsed in int64 by the
# vector path; longer tokens (and anything not plain ASCII digits) go
# through ``int()``.
_PLAIN_DIGITS = 18


class SourceNotReiterableError(RuntimeError):
    """A source yielded rows once and then came back empty.

    Raised by :class:`IterableSource` when a second iteration produces
    zero rows after a non-empty first one — the signature of wrapping a
    single-shot generator.  Without this guard the second pass would
    silently mine an empty rule set.
    """


class RowStream:
    """One pass over a source's rows.

    ``blocks`` yields them as CSR :data:`Block`\\ s; iterating the stream
    yields each row as a tuple of column ids instead, built from the
    same blocks (a view for callers that want rows one at a time —
    pass 1 reads the blocks).
    """

    def __init__(self, blocks: Iterator[Block]) -> None:
        self.blocks = blocks
        self._rows: Optional[Iterator[Tuple[int, ...]]] = None

    def __iter__(self) -> "RowStream":
        return self

    def __next__(self) -> Tuple[int, ...]:
        if self._rows is None:
            self._rows = _tuples(self.blocks)
        return next(self._rows)


def _tuples(blocks: Iterable[Block]) -> Iterator[Tuple[int, ...]]:
    """Every row of ``blocks`` as a tuple."""
    for lengths, cols in blocks:
        ids = cols.tolist()
        start = 0
        for end in np.cumsum(lengths).tolist():
            yield tuple(ids[start:end])
            start = end


def _id_error(value: int, number: int, where: str) -> ValueError:
    """The error for column id ``value`` on line ``number`` of ``where``."""
    if value < 0:
        reason = "column ids must be non-negative"
    else:
        reason = f"column ids must be below 2**31 ({ID_LIMIT})"
    return ValueError(f"{where}, line {number}: {reason}, got {value}")


def _packed(
    numbered: Iterator[Tuple[int, Tuple[int, ...]]], where: str
) -> Iterator[Block]:
    """Pack ``(line_number, row)`` pairs into blocks of ``PACK_ROWS``
    rows, rejecting any id outside ``[0, 2**31)``."""
    while True:
        batch = list(itertools.islice(numbered, PACK_ROWS))
        if not batch:
            return
        numbers, rows = zip(*batch)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        try:
            cols = np.fromiter(
                itertools.chain.from_iterable(rows), dtype=np.int64,
                count=int(lengths.sum()),
            )
        except OverflowError:  # an id past int64: out of range too
            number, value = next(
                (number, value) for number, row in batch for value in row
                if not 0 <= value < ID_LIMIT
            )
            raise _id_error(value, number, where) from None
        bad = np.flatnonzero((cols < 0) | (cols >= ID_LIMIT))
        if len(bad):
            row = int(np.searchsorted(np.cumsum(lengths), bad[0], "right"))
            raise _id_error(int(cols[bad[0]]), numbers[row], where)
        yield lengths, cols


def _blocks_of(rows: Iterable[Tuple[int, ...]]) -> Iterator[Block]:
    """The blocks of one pass: a :class:`RowStream`'s own, or any other
    row iterable's (a custom source's ``iter_rows``), packed."""
    if isinstance(rows, RowStream):
        return rows.blocks
    return _packed(enumerate(rows, start=1), "row stream")


def source_matrix(
    source: "TransactionSource", grow: bool = False
) -> BinaryMatrix:
    """One pass over ``source``'s blocks as a matrix; its column count
    is read after the pass, so a late ``#columns`` line counts.  An id
    at or past that count raises, unless ``grow`` widens the matrix to
    it, as pass 1 grows ``ones``."""
    empty = np.zeros(0, dtype=np.int64)
    lengths, cols = (
        np.concatenate(parts)
        for parts in zip((empty, empty), *_blocks_of(source.iter_rows()))
    )
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    n_columns = source.n_columns()
    if grow and len(cols):
        n_columns = max(n_columns or 0, int(cols.max()) + 1)
    return BinaryMatrix._from_csr(
        *_csr_entries(row_of, cols, len(lengths), n_columns)
    )


class TransactionSource:
    """A re-iterable source of rows (each a tuple of column ids)."""

    def iter_rows(self) -> Iterable[Tuple[int, ...]]:
        """One pass over every row; must be repeatable (two passes).

        The built-in sources return a :class:`RowStream`, whose CSR
        blocks pass 1 reads directly; any other iterable of row tuples
        works too.
        """
        raise NotImplementedError

    def n_columns(self) -> Optional[int]:
        """The column-universe size, if known up front."""
        return None


class MatrixSource(TransactionSource):
    """Adapt an in-memory :class:`BinaryMatrix` to the interface."""

    def __init__(self, matrix: BinaryMatrix) -> None:
        self._matrix = matrix

    def iter_rows(self) -> RowStream:
        return RowStream(self._blocks())

    def _blocks(self) -> Iterator[Block]:
        """Slices of the matrix's CSR arrays, ``PACK_ROWS`` rows each."""
        matrix = self._matrix
        lengths, offsets = matrix.row_densities(), matrix.offsets
        for lo in range(0, matrix.n_rows, PACK_ROWS):
            hi = min(lo + PACK_ROWS, matrix.n_rows)
            yield lengths[lo:hi], matrix.cols[offsets[lo]:offsets[hi]]

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

    def iter_rows(self) -> RowStream:
        return RowStream(_packed(self._normalized(), "iterable source"))

    def _normalized(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """``(row_number, row)`` for every row the validator keeps,
        sorted and deduplicated."""
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
            yield row_number, normalized
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
    """Lazily stream a numeric transactions text file.

    The file follows :mod:`repro.matrix.io`'s grammar: ``#`` lines are
    comments, ``#columns N`` sets :meth:`n_columns`, and every other
    line is a row of column ids in ``[0, 2**31)``, split as
    ``str.split`` does, sorted and deduplicated (an empty line is an
    empty row).  The leading ``#`` lines are read at construction, so a
    declared count can pre-size pass 1's counts; a ``#vocab`` line
    there raises ``ValueError``, as labelled files load in memory with
    :func:`repro.matrix.io.load_transactions`.

    Without a validator the file is parsed ``PARSE_CHUNK_CHARS``
    characters at a time with numpy, each chunk one block; a token
    ``int()`` rejects, or an id out of range, raises ``ValueError``
    naming the line.  A :class:`RowValidator` judges malformed lines
    instead, one at a time (diagnostics carry the 1-based line number
    and the path; a blank line skips it).
    """

    def __init__(
        self, path: str, validator: Optional[RowValidator] = None
    ) -> None:
        self.path = path
        self.validator = validator
        with open(path, "r", encoding="utf-8") as handle:
            self._columns, vocabulary = read_header(enumerate(handle))
        if vocabulary is not None:
            raise ValueError(
                f"{path} is a labelled (#vocab) file; labelled files load "
                "in memory with repro.matrix.io.load_transactions"
            )

    def iter_rows(self) -> RowStream:
        return RowStream(self._blocks())

    def _blocks(self) -> Iterator[Block]:
        with open(self.path, "r", encoding="utf-8") as handle:
            if self.validator is not None:
                yield from _packed(self._validated(handle), self.path)
                return
            line_number, carry = 1, ""
            while True:
                text = handle.read(PARSE_CHUNK_CHARS)
                if not text:
                    break
                # Parse whole lines; a partial last line waits for the
                # next read.
                text = carry + text
                cut = text.rfind("\n") + 1
                carry = text[cut:]
                if cut:
                    yield self._parse(text[:cut], line_number)
                    line_number += text.count("\n", 0, cut)
            if carry:
                yield self._parse(carry, line_number)

    def _validated(self, handle) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """``(line_number, row)`` for every row the validator keeps."""
        for line_number, line in enumerate(handle, start=1):
            if line.startswith("#"):
                self._columns = columns_of(line, self._columns)
                continue
            tokens = line.split()
            row = self.validator.validate_tokens(
                tokens, line_number=line_number, source=self.path
            ) if tokens else ()
            if row is not None:
                yield line_number, row

    def _parse(self, text: str, first_line: int) -> Block:
        """The block of the whole lines in ``text``, whose first line is
        line ``first_line`` of the file."""
        if text.isascii():
            codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        else:
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
        size = len(codes)
        breaks = np.flatnonzero(codes == ord("\n"))
        starts = np.concatenate(([0], breaks + 1))
        if starts[-1] == size:
            starts = starts[:-1]
        comment = codes[starts] == ord("#")
        # Tokens are the maximal runs of non-space characters.
        word = ~_SPACE.take(codes, mode="clip")
        begins = np.flatnonzero(word[1:] & ~word[:-1]) + 1
        ends = np.flatnonzero(word[:-1] & ~word[1:]) + 1
        if word[0]:
            begins = np.concatenate(([0], begins))
        if word[-1]:
            ends = np.append(ends, size)
        token_line = np.searchsorted(breaks, begins)
        line_ends = np.append(breaks, size)
        for line in np.flatnonzero(comment).tolist():
            body = text[starts[line]:line_ends[line]]
            self._columns = columns_of(body, self._columns)
        if comment.any():
            data = ~comment[token_line]
            begins, ends, token_line = (
                part[data] for part in (begins, ends, token_line)
            )
        values, plain = _digit_values(codes, begins, ends - begins)
        # The first token that is no id in range stops the parse, in
        # file order: a non-plain token goes through ``int()``, which
        # raises on garbage exactly as a per-line parse would.
        stop = np.flatnonzero(plain & (values >= ID_LIMIT))
        stop = int(stop[0]) if len(stop) else len(begins)
        for token in np.flatnonzero(~plain).tolist():
            if token > stop:
                break
            value = int(text[begins[token]:ends[token]])
            if not 0 <= value < ID_LIMIT:
                stop = token
                break
            values[token] = value
        if stop < len(begins):
            raise _id_error(
                int(text[begins[stop]:ends[stop]]),
                first_line + int(token_line[stop]), self.path,
            )
        rows = ~comment
        row_of = (np.cumsum(rows) - 1)[token_line]
        offsets, cols, _ = _csr_entries(row_of, values, int(rows.sum()), None)
        return np.diff(offsets), cols

    def n_columns(self) -> Optional[int]:
        return self._columns


def _digit_values(
    codes: np.ndarray, begins: np.ndarray, widths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, plain)`` of the tokens ``codes[begins:begins+widths]``:
    ``plain`` marks tokens of at most ``_PLAIN_DIGITS`` ASCII digits,
    whose decimal value ``values`` holds (other entries are garbage)."""
    values = np.zeros(len(begins), dtype=np.int64)
    plain = widths <= _PLAIN_DIGITS
    # Horner's rule one digit position at a time, for every token at
    # once: a loop over the widest token's width, not over tokens.
    for position in range(min(int(widths.max(initial=0)), _PLAIN_DIGITS)):
        live = widths > position
        digit = codes[np.where(live, begins + position, 0)].astype(np.int64)
        digit -= ord("0")
        plain &= ~live | ((digit >= 0) & (digit <= 9))
        values = np.where(live, values * 10 + digit, values)
    return values, plain


class BucketSpill:
    """First-scan density bucketing into spill files.

    Each block of rows is split by density range ``[2**i, 2**(i+1))``
    and appended to the bucket file of each range it touches as one
    binary record (its row count, the rows' lengths, then their column
    ids: :data:`RECORD_COUNT`, :data:`RECORD_ID`); :meth:`records`
    then replays them bucket by bucket, sparsest first, in file order
    within a bucket.  Use as a context manager so the files are always
    cleaned up.

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
        self._handles: List[BinaryIO] = []
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

    def add_block(self, lengths: np.ndarray, cols: np.ndarray) -> None:
        """Spill a block's non-empty rows: one record per density bucket
        they fall in, holding its rows in block order.

        A failed write removes the partial bucket file before the error
        propagates — a truncated bucket must never survive to fail the
        checkpoint's fingerprint check on resume (and the caller is
        about to degrade or die anyway).
        """
        if not self._writable:
            raise RuntimeError("spill is finished or closed (read-only)")
        rows = np.flatnonzero(lengths)
        if not len(rows):
            return
        buckets = bucket_indices(lengths[rows])
        by_bucket = np.argsort(buckets, kind="stable")
        rows, buckets = rows[by_bucket], buckets[by_bucket]
        sizes = lengths[rows]
        ids = cols[concat_ranges(_offsets_of(lengths)[rows], sizes)]
        ids = ids.astype(RECORD_ID)
        row_bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(buckets)) + 1, [len(rows)])
        ).tolist()
        id_bounds = _offsets_of(sizes)[row_bounds].tolist()
        sizes = sizes.astype(RECORD_ID)
        for lo, hi, id_lo, id_hi in zip(
            row_bounds, row_bounds[1:], id_bounds, id_bounds[1:]
        ):
            bucket = int(buckets[lo])
            self._open_through(bucket)
            try:
                self._handles[bucket].write(
                    np.array(hi - lo, dtype=RECORD_COUNT).tobytes()
                    + sizes[lo:hi].tobytes() + ids[id_lo:id_hi].tobytes()
                )
            except OSError:
                self._discard_partial(bucket)
                raise
            self._rows_per_bucket[bucket] += hi - lo
        self.rows_spilled += len(rows)

    def _open_through(self, bucket: int) -> None:
        """Create the bucket files up to ``bucket``, in index order."""
        while bucket >= len(self._handles):
            path = os.path.join(
                self._directory, f"bucket-{len(self._handles):02d}.bin"
            )
            handle = self.storage.open(path, "wb")
            self._paths.append(path)
            self._handles.append(handle)
            self._rows_per_bucket.append(0)

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

    def records(self, kept: Optional[np.ndarray] = None) -> Iterator[Block]:
        """Replay every spilled record as a block, sparsest bucket
        first and in file order within a bucket.

        ``kept`` (a bool mask over the column ids) drops every other
        column from the rows; a row may come back empty.
        """
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
                lambda path=path: self.storage.open(path, "rb"),
                on_retry=self._note_retry,
                on_giveup=self._note_giveup,
            )
            with handle:
                while True:
                    head = handle.read(RECORD_COUNT.itemsize)
                    if not head:
                        break
                    count = int(np.frombuffer(head, dtype=RECORD_COUNT)[0])
                    lengths = _read_ids(handle, count)
                    cols = _read_ids(handle, int(lengths.sum()))
                    if kept is not None:
                        inside = kept[cols]
                        cols = cols[inside]
                        lengths = np.diff(
                            _offsets_of(inside)[_offsets_of(lengths)]
                        )
                    yield lengths, cols

    def _note_retry(self, error: BaseException) -> None:
        self.io_retries += 1
        if self.observer.enabled:
            self.observer.on_retry("spill.open")
            self.observer.on_io_error(io_error_kind(error))

    def _note_giveup(self, error: BaseException) -> None:
        # A terminal fault takes a ladder rung, and ``storage.degrade``
        # counts it there; an exhausted retry propagates, so count it.
        if self.observer.enabled and not terminal_io_error(error):
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


def _read_ids(handle: BinaryIO, count: int) -> np.ndarray:
    """The next ``count`` record ids of a bucket file, as int64."""
    data = handle.read(count * RECORD_ID.itemsize)
    if len(data) != count * RECORD_ID.itemsize:
        raise ValueError(f"spill bucket {handle.name} is truncated")
    return np.frombuffer(data, dtype=RECORD_ID).astype(np.int64)


def _first_scan(source: TransactionSource, spill: BucketSpill) -> np.ndarray:
    """Pass 1: count ones per column while spilling rows to buckets, a
    block at a time; ``ones`` grows past the declared universe for any
    larger id."""
    ones = np.zeros(source.n_columns() or 0, dtype=np.int64)
    for lengths, cols in _blocks_of(source.iter_rows()):
        counts = np.bincount(cols, minlength=len(ones))
        if len(counts) > len(ones):
            ones = np.pad(ones, (0, len(counts) - len(ones)))
        ones += counts
        spill.add_block(lengths, cols)
    return ones


class _Replay:
    """Pass 2's block source: ``take(n)`` serves the next ``n`` rows of
    the spill's records, cutting records wherever a block ends.

    Every ``take`` charges the spill I/O retries it caused to
    ``scan_stats``.
    """

    def __init__(self, spill: BucketSpill, kept, scan_stats) -> None:
        self._records = spill.records(kept)
        self._spill, self._stats = spill, scan_stats
        self._retries = spill.io_retries
        self._lengths = self._cols = np.zeros(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._row = 0

    def take(
        self, n: int
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        lengths, cols = [], []
        taken = 0
        while taken < n:
            if self._row == len(self._lengths):
                record = next(self._records, None)
                if record is None:
                    break
                self._lengths, self._cols = record
                self._offsets = _offsets_of(self._lengths)
                self._row = 0
            stop = min(self._row + n - taken, len(self._lengths))
            lengths.append(self._lengths[self._row:stop])
            cols.append(
                self._cols[self._offsets[self._row]:self._offsets[stop]]
            )
            taken += stop - self._row
            self._row = stop
        self._stats.io_retries += self._spill.io_retries - self._retries
        self._retries = self._spill.io_retries
        if not taken:
            return 0, None, None
        return taken, np.concatenate(lengths), np.concatenate(cols)


def _spill_rows(spill: BucketSpill, observer):
    """Pass 2's row source (a :data:`repro.core.dmc_imp.RowSource`).

    Every pass replays the bucket records sparsest-first, straight into
    the vector scan in blocks (:class:`_Replay`) — nothing is
    materialized except what the scan holds — and drops the columns
    outside the ``kept`` mask from each record as it is read.  Spill
    I/O retries are charged to the pass that hit them.
    """
    spill.observer = observer

    def rows_for(kept, scan_stats):
        return _Replay(spill, kept, scan_stats), spill.rows_spilled

    return rows_for


def _validator_counts(source: TransactionSource) -> Tuple[int, int]:
    """The source validator's ``(rows_skipped, rows_clamped)`` so far."""
    validator = getattr(source, "validator", None)
    if validator is None:
        return 0, 0
    return validator.rows_skipped, validator.rows_clamped


def _record_validation(
    source: TransactionSource,
    stats: PipelineStats,
    before: Tuple[int, int],
) -> None:
    """Add the validator's counts since ``before`` (a
    :func:`_validator_counts` reading) to the pipeline stats."""
    skipped, clamped = _validator_counts(source)
    stats.hundred_percent_scan.rows_skipped += skipped - before[0]
    stats.hundred_percent_scan.rows_clamped += clamped - before[1]


def _checkpoint_off(stats, observer, error: OSError) -> None:
    """The checkpoint ladder step: re-raise a curable ``error``, else
    take the ``"checkpoint-off"`` rung; the caller then mines on
    without resume protection (it drops its store)."""
    if not terminal_io_error(error):
        raise error
    degrade(stats, observer, "checkpoint-off", error)


def _in_memory_fallback(
    source: TransactionSource,
    threshold,
    kind: str,
    options: PruningOptions,
    stats: PipelineStats,
    observer,
) -> RuleSet:
    """Redo a mine entirely in memory (the spill degradation target).

    Materializes the source's blocks as a :class:`BinaryMatrix`, as
    wide as pass 1's ``ones`` would grow, and runs the in-memory
    pipeline on the same vector scan — the exact same rules, no disk
    beyond the source itself.
    """
    before = _validator_counts(source)
    matrix = source_matrix(source, grow=True)
    _record_validation(source, stats, before)
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
    abandons the on-disk attempt and redoes the run on the in-memory
    engine; the stats are reset so they describe the run that actually
    produced the rules, keeping the engine and every rung taken
    (``stats.degradations``).
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
        # The aborted attempt's numbers would mislead; the engine
        # that ``repro.mine`` resolved and the rungs already taken
        # still describe this run.
        stats.__init__(engine=stats.engine, degradations=stats.degradations)
        degrade(stats, observer, "spill-to-memory", error)
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
    validated_before = _validator_counts(source)

    store: Optional[CheckpointStore] = None
    spill: Optional[BucketSpill] = None
    ones: Optional[np.ndarray] = None
    fingerprint = params = None
    if checkpoint_dir is not None:
        fingerprint = source_fingerprint(source)
        params = {"kind": kind, "threshold": str(threshold)}
        try:
            store = CheckpointStore(
                checkpoint_dir, observer=observer, storage=storage,
                stats=stats.hundred_percent_scan,
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
                ones = np.array(checkpoint.ones, dtype=np.int64)
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
                _record_validation(source, stats, validated_before)
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
    run degrades instead of aborting: checkpointing switches off, and a
    failed spill redoes the run on the in-memory engine — identical
    rules either way, each rung warned and recorded in
    ``stats.degradations``.  ``preflight=True`` checks free disk space
    against the estimated spill footprint before pass 1 starts.
    """
    options = PruningOptions(bitmap=bitmap)
    return _stream_rules(
        source, minconf, "implication", options, spill_dir,
        checkpoint_dir, stats, observer, storage, preflight,
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
        checkpoint_dir, stats, observer, storage, preflight,
    )
