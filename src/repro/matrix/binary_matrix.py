"""Boolean matrix abstraction used by every algorithm in this package.

The representation is row-major CSR (Section 2 of the paper: "a row
consists of a set of columns"): two read-only int64 arrays, ``cols``
holding every row's column ids — sorted and deduplicated within each
row — one row after another, and ``offsets``, where row ``i`` is
``cols[offsets[i]:offsets[i + 1]]``.  Every derived matrix (selected
rows, restricted or compacted columns, the transpose) is an array
expression over those two arrays, so rows are sorted once, when the
matrix is first built.  Row tuples and the column sets ``S_i`` are
built on demand for the serial scans and the verification oracle.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


def int64_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ``ValueError`` naming ``what`` when
    one is fractional (never truncated) or does not fit in int64."""
    array = np.asarray(
        values if isinstance(values, (np.ndarray, list)) else list(values)
    )
    if array.dtype.kind in "bi":
        return array.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            exact = array.astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        exact = None
    # A value that is fractional or out of range does not survive the
    # cast unchanged.
    if (
        exact is None or array.dtype.kind not in "ufO"
        or not np.array_equal(exact, array)
    ):
        raise ValueError(f"{what} must be integers that fit in int64")
    return exact


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` for every pair."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(
        ends[-1] if len(ends) else 0
    )


def _offsets_of(lengths: np.ndarray) -> np.ndarray:
    """Row offsets (``len(lengths) + 1`` entries) for rows of ``lengths``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _csr_entries(
    row_of: np.ndarray, cols: np.ndarray, n_rows: int,
    n_columns: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(offsets, cols, n_columns)`` of the entries ``(row_of[i],
    cols[i])``: sorted by row then column, repeats dropped (no sort
    when they already are), ``n_columns`` checked or inferred."""
    if len(cols) and cols.min() < 0:
        raise ValueError("column ids must be non-negative")
    if len(row_of) and (row_of.min() < 0 or row_of.max() >= n_rows):
        raise ValueError(f"row ids must lie in [0, {n_rows})")
    step = np.diff(row_of)
    if np.any((step < 0) | ((step == 0) & (cols[1:] <= cols[:-1]))):
        by_entry = np.lexsort((cols, row_of))
        row_of, cols = row_of[by_entry], cols[by_entry]
        fresh = np.ones(len(cols), dtype=bool)
        fresh[1:] = (row_of[1:] != row_of[:-1]) | (cols[1:] != cols[:-1])
        row_of, cols = row_of[fresh], cols[fresh]
    max_seen = int(cols.max()) if len(cols) else -1
    if n_columns is None:
        n_columns = max_seen + 1
    elif n_columns <= max_seen:
        raise ValueError(
            f"n_columns={n_columns} but a row references column {max_seen}"
        )
    lengths = np.bincount(row_of, minlength=n_rows)
    return _offsets_of(lengths), cols, int(n_columns)


class Vocabulary:
    """Bidirectional mapping between attribute labels and column ids.

    Datasets whose attributes are words or URLs carry a vocabulary so that
    mined rules can be reported with human-readable labels.
    """

    def __init__(self, labels: Optional[Iterable[str]] = None) -> None:
        self._labels: List[str] = []
        self._ids: Dict[str, int] = {}
        if labels is not None:
            for label in labels:
                self.add(label)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._labels == other._labels

    def add(self, label: str) -> int:
        """Return the id for ``label``, assigning the next id if new."""
        existing = self._ids.get(label)
        if existing is not None:
            return existing
        new_id = len(self._labels)
        self._ids[label] = new_id
        self._labels.append(label)
        return new_id

    def id_of(self, label: str) -> int:
        """Return the id for ``label``; raise ``KeyError`` if unknown."""
        return self._ids[label]

    def label_of(self, column: int) -> str:
        """Return the label for column id ``column``."""
        return self._labels[column]

    def labels(self) -> Tuple[str, ...]:
        """Return all labels in id order."""
        return tuple(self._labels)


class BinaryMatrix:
    """An ``n x m`` 0/1 matrix stored as CSR rows of sorted column ids.

    Parameters
    ----------
    rows:
        Iterable of iterables of column ids.  Duplicate ids within a row
        are collapsed; ids must be non-negative integers.
    n_columns:
        Total number of columns ``m``.  Defaults to one past the largest
        column id seen (zero for an empty matrix).
    vocabulary:
        Optional :class:`Vocabulary` mapping labels to column ids.

    Attributes
    ----------
    offsets, cols:
        The read-only int64 storage: row ``i`` is
        ``cols[offsets[i]:offsets[i + 1]]``, sorted and deduplicated.
    """

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        n_columns: Optional[int] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> None:
        rows = [
            row if isinstance(row, (list, tuple)) else list(row)
            for row in rows
        ]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        cols = int64_array(
            list(itertools.chain.from_iterable(rows)), "column ids"
        )
        row_of = np.repeat(np.arange(len(rows)), lengths)
        entries = _csr_entries(row_of, cols, len(rows), n_columns)
        self.__setstate__((*entries, vocabulary))

    @classmethod
    def _from_csr(
        cls, offsets: np.ndarray, cols: np.ndarray, n_columns: int,
        vocabulary: Optional[Vocabulary] = None,
    ) -> "BinaryMatrix":
        """The matrix over ``offsets``/``cols``, whose rows are already
        sorted and deduplicated (every derived matrix comes from here)."""
        matrix = cls.__new__(cls)
        matrix.__setstate__((offsets, cols, n_columns, vocabulary))
        return matrix

    def __getstate__(self):
        return self.offsets, self.cols, self._n_columns, self.vocabulary

    def __setstate__(self, state) -> None:
        self.offsets, self.cols, self._n_columns, self.vocabulary = state
        self.offsets.flags.writeable = self.cols.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_dense(cls, array: Sequence[Sequence[int]]) -> "BinaryMatrix":
        """Build from a dense 0/1 array-like (rows x columns)."""
        dense = np.asarray(array)
        if dense.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        return cls._from_csr(*_csr_entries(*np.nonzero(dense), *dense.shape))

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Iterable[str]]
    ) -> "BinaryMatrix":
        """Build from labelled transactions, assigning ids in first-seen order."""
        vocabulary = Vocabulary()
        rows = [
            [vocabulary.add(label) for label in transaction]
            for transaction in transactions
        ]
        return cls(rows, n_columns=len(vocabulary), vocabulary=vocabulary)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        n_rows: int,
        n_columns: int,
    ) -> "BinaryMatrix":
        """Build from ``(row, column)`` pairs, e.g. a page-link graph."""
        pairs = int64_array(list(edges), "edge ids").reshape(-1, 2)
        return cls._from_csr(
            *_csr_entries(pairs[:, 0], pairs[:, 1], n_rows, n_columns)
        )

    @classmethod
    def from_column_sets(
        cls, column_sets: Sequence[Iterable[int]], n_rows: int
    ) -> "BinaryMatrix":
        """Build from per-column row sets (the ``S_i`` of the paper)."""
        return cls(column_sets, n_columns=n_rows).transpose()

    # ------------------------------------------------------------------
    # Shape and row access
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows ``n``."""
        return len(self.offsets) - 1

    @property
    def n_columns(self) -> int:
        """Number of columns ``m``."""
        return self._n_columns

    @property
    def nnz(self) -> int:
        """Total number of 1 entries."""
        return int(self.offsets[-1])

    def row(self, index: int) -> Tuple[int, ...]:
        """Return row ``index`` as a sorted tuple of column ids."""
        index = range(self.n_rows)[index]
        lo, hi = self.offsets[index:index + 2].tolist()
        return tuple(self.cols[lo:hi].tolist())

    def iter_rows(
        self, order: Optional[Sequence[int]] = None
    ) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(row_id, columns)`` pairs, optionally in a custom order."""
        cols, offsets = self.cols.tolist(), self.offsets.tolist()
        for index in range(self.n_rows) if order is None else order:
            yield index, tuple(cols[offsets[index]:offsets[index + 1]])

    def row_densities(self) -> np.ndarray:
        """Return the number of 1's in each row."""
        return np.diff(self.offsets)

    def _row_of(self) -> np.ndarray:
        """The row id of every entry of ``cols``."""
        return np.repeat(np.arange(self.n_rows), self.row_densities())

    # ------------------------------------------------------------------
    # Column views
    # ------------------------------------------------------------------

    def column_ones(self) -> np.ndarray:
        """Return ``ones(c_i)`` for every column.

        This is exactly the first scan of Algorithm 3.1 step 1.
        """
        return np.bincount(self.cols, minlength=self._n_columns).astype(
            np.int64, copy=False
        )

    def column_set(self, column: int) -> frozenset:
        """Return ``S_i``: the set of row ids with a 1 in ``column``."""
        return frozenset(self.transpose().row(column))

    def column_sets(self) -> List[frozenset]:
        """Return all ``S_i`` sets."""
        return [frozenset(row) for _, row in self.transpose().iter_rows()]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def transpose(self) -> "BinaryMatrix":
        """Return the transposed matrix (used for plinkF vs plinkT)."""
        return self._from_csr(*_csr_entries(
            self.cols, self._row_of(), self._n_columns, self.n_rows
        ))

    def select_rows(self, row_ids: Sequence[int]) -> "BinaryMatrix":
        """Return a new matrix containing only ``row_ids`` (same columns)."""
        rows = int64_array(row_ids, "row ids")
        lengths = self.row_densities()[rows]
        return self._from_csr(
            _offsets_of(lengths),
            self.cols[concat_ranges(self.offsets[:-1][rows], lengths)],
            self._n_columns, self.vocabulary,
        )

    def restrict_columns(self, keep: Iterable[int]) -> "BinaryMatrix":
        """Return a matrix with only ``keep`` columns, ids preserved.

        Column ids are *not* remapped — dropped columns simply become
        all-zero — so rules mined from the restriction use the original
        ids.  This is how DMC-imp step 3 removes low-frequency columns.
        """
        ids = int64_array(keep, "column ids")
        mask = np.zeros(self._n_columns, dtype=bool)
        mask[ids[(ids >= 0) & (ids < self._n_columns)]] = True
        kept = mask[self.cols]
        return self._from_csr(
            _offsets_of(kept)[self.offsets], self.cols[kept],
            self._n_columns, self.vocabulary,
        )

    def compact_columns(
        self, keep: Optional[Iterable[int]] = None
    ) -> Tuple["BinaryMatrix", List[int]]:
        """Drop columns and remap ids densely; return (matrix, old ids).

        ``keep`` defaults to the columns with at least one 1.  The
        returned list maps each new column id to its old id; the
        vocabulary, if any, is re-labelled accordingly.  This is the
        physical pruning used to build the paper's WlogP and NewsP
        data sets (Table 1 reports the shrunken column counts).
        """
        if keep is None:
            kept = np.flatnonzero(self.column_ones())
        else:
            kept = np.unique(int64_array(keep, "column ids"))
        inside = (kept >= 0) & (kept < self._n_columns)
        remap = np.full(self._n_columns, -1, dtype=np.int64)
        remap[kept[inside]] = np.flatnonzero(inside)
        cols = remap[self.cols]
        hit = cols >= 0
        kept = kept.tolist()
        vocabulary = None
        if self.vocabulary is not None:
            vocabulary = Vocabulary(
                self.vocabulary.label_of(old) for old in kept
            )
        compacted = self._from_csr(
            _offsets_of(hit)[self.offsets], cols[hit], len(kept),
            vocabulary,
        )
        return compacted, kept

    def prune_columns_by_support(
        self,
        min_ones: int = 0,
        max_ones: Optional[int] = None,
    ) -> "BinaryMatrix":
        """Drop (and remap away) columns outside ``[min_ones, max_ones]``.

        This is the support pruning the paper applies to build WlogP
        (columns with more than 10 ones survive) and NewsP (minimum
        support 35, maximum 3278).
        """
        ones = self.column_ones()
        inside = ones >= min_ones
        if max_ones is not None:
            inside &= ones <= max_ones
        compacted, _ = self.compact_columns(np.flatnonzero(inside))
        return compacted

    def drop_empty_rows(self) -> "BinaryMatrix":
        """Return a copy without all-zero rows."""
        return self._from_csr(
            np.unique(self.offsets), self.cols, self._n_columns,
            self.vocabulary,
        )

    def to_dense(self) -> np.ndarray:
        """Return a dense ``uint8`` array (small matrices only)."""
        dense = np.zeros((self.n_rows, self._n_columns), dtype=np.uint8)
        dense[self._row_of(), self.cols] = 1
        return dense

    def to_csr(self):
        """Return a ``scipy.sparse.csr_matrix`` copy (for the oracle)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (np.ones(self.nnz, dtype=np.int64), self.cols.copy(),
             self.offsets.copy()),
            shape=(self.n_rows, self._n_columns),
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self._n_columns == other._n_columns
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.cols, other.cols)
        )

    def __repr__(self) -> str:
        return (
            f"BinaryMatrix(n_rows={self.n_rows}, "
            f"n_columns={self._n_columns}, nnz={self.nnz})"
        )
