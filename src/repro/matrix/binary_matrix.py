"""Boolean matrix abstraction used by every algorithm in this package.

The representation is row-major: each row is a sorted tuple of the column
ids that are 1 in that row (Section 2 of the paper: "a row consists of a
set of columns").  Column-oriented views (the sets ``S_i`` of rows with a
1 in column ``c_i``) are derived lazily and cached, because only the
verification oracle and the bitmap phases need them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


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
    """An ``n x m`` 0/1 matrix stored as rows of sorted column ids.

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
    """

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        n_columns: Optional[int] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> None:
        self._rows: List[Tuple[int, ...]] = [
            tuple(sorted(set(int(c) for c in row))) for row in rows
        ]
        max_seen = -1
        for row in self._rows:
            if row and row[-1] > max_seen:
                max_seen = row[-1]
            if row and row[0] < 0:
                raise ValueError("column ids must be non-negative")
        if n_columns is None:
            n_columns = max_seen + 1
        elif n_columns <= max_seen:
            raise ValueError(
                f"n_columns={n_columns} but a row references column {max_seen}"
            )
        self._n_columns = int(n_columns)
        self.vocabulary = vocabulary
        self._column_ones: Optional[np.ndarray] = None
        self._column_sets: Optional[List[frozenset]] = None
        self._flat: Optional[Tuple[np.ndarray, ...]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_dense(cls, array: Sequence[Sequence[int]]) -> "BinaryMatrix":
        """Build from a dense 0/1 array-like (rows x columns)."""
        dense = np.asarray(array)
        if dense.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        rows = [np.flatnonzero(dense[i]).tolist() for i in range(dense.shape[0])]
        return cls(rows, n_columns=dense.shape[1])

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
        rows: List[List[int]] = [[] for _ in range(n_rows)]
        for r, c in edges:
            rows[r].append(c)
        return cls(rows, n_columns=n_columns)

    @classmethod
    def from_column_sets(
        cls, column_sets: Sequence[Iterable[int]], n_rows: int
    ) -> "BinaryMatrix":
        """Build from per-column row sets (the ``S_i`` of the paper)."""
        rows: List[List[int]] = [[] for _ in range(n_rows)]
        for column, row_ids in enumerate(column_sets):
            for r in row_ids:
                rows[r].append(column)
        return cls(rows, n_columns=len(column_sets))

    # ------------------------------------------------------------------
    # Shape and row access
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows ``n``."""
        return len(self._rows)

    @property
    def n_columns(self) -> int:
        """Number of columns ``m``."""
        return self._n_columns

    @property
    def nnz(self) -> int:
        """Total number of 1 entries."""
        return sum(len(row) for row in self._rows)

    def row(self, index: int) -> Tuple[int, ...]:
        """Return row ``index`` as a sorted tuple of column ids."""
        return self._rows[index]

    def iter_rows(
        self, order: Optional[Sequence[int]] = None
    ) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(row_id, columns)`` pairs, optionally in a custom order."""
        if order is None:
            yield from enumerate(self._rows)
        else:
            for index in order:
                yield index, self._rows[index]

    def row_densities(self) -> np.ndarray:
        """Return the number of 1's in each row."""
        return np.array([len(row) for row in self._rows], dtype=np.int64)

    def flat_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style view of the non-empty rows, cached.

        Returns ``(lengths, cols, offsets)``: the non-empty rows' lengths
        in natural order, all their column ids concatenated, and the
        prefix offsets into ``cols`` (length ``len(lengths) + 1``).  The
        vectorized scan engine slices blocks straight out of these
        arrays instead of touching row tuples.
        """
        if self._flat is None:
            import itertools

            rows = [row for row in self._rows if row]
            lengths = np.fromiter(
                map(len, rows), dtype=np.int64, count=len(rows)
            )
            cols = np.fromiter(
                itertools.chain.from_iterable(rows),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            self._flat = (lengths, cols, offsets)
        return self._flat

    # ------------------------------------------------------------------
    # Column views
    # ------------------------------------------------------------------

    def column_ones(self) -> np.ndarray:
        """Return ``ones(c_i)`` for every column (cached).

        This is exactly the first scan of Algorithm 3.1 step 1.
        """
        if self._column_ones is None:
            counts = np.zeros(self._n_columns, dtype=np.int64)
            for row in self._rows:
                for column in row:
                    counts[column] += 1
            self._column_ones = counts
        return self._column_ones

    def column_set(self, column: int) -> frozenset:
        """Return ``S_i``: the set of row ids with a 1 in ``column``."""
        return self.column_sets()[column]

    def column_sets(self) -> List[frozenset]:
        """Return all ``S_i`` sets (cached)."""
        if self._column_sets is None:
            sets: List[set] = [set() for _ in range(self._n_columns)]
            for row_id, row in enumerate(self._rows):
                for column in row:
                    sets[column].add(row_id)
            self._column_sets = [frozenset(s) for s in sets]
        return self._column_sets

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def transpose(self) -> "BinaryMatrix":
        """Return the transposed matrix (used for plinkF vs plinkT)."""
        rows: List[List[int]] = [[] for _ in range(self._n_columns)]
        for row_id, row in enumerate(self._rows):
            for column in row:
                rows[column].append(row_id)
        return BinaryMatrix(rows, n_columns=self.n_rows)

    def select_rows(self, row_ids: Sequence[int]) -> "BinaryMatrix":
        """Return a new matrix containing only ``row_ids`` (same columns)."""
        return BinaryMatrix(
            [self._rows[i] for i in row_ids],
            n_columns=self._n_columns,
            vocabulary=self.vocabulary,
        )

    def restrict_columns(self, keep: Iterable[int]) -> "BinaryMatrix":
        """Return a matrix with only ``keep`` columns, ids preserved.

        Column ids are *not* remapped — dropped columns simply become
        all-zero — so rules mined from the restriction use the original
        ids.  This is how DMC-imp step 3 removes low-frequency columns.
        """
        keep_set = set(keep)
        rows = [
            tuple(c for c in row if c in keep_set) for row in self._rows
        ]
        return BinaryMatrix(
            rows, n_columns=self._n_columns, vocabulary=self.vocabulary
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
            ones = self.column_ones()
            kept = [c for c in range(self._n_columns) if ones[c] > 0]
        else:
            kept = sorted(set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        rows = [
            [remap[c] for c in row if c in remap] for row in self._rows
        ]
        vocabulary = None
        if self.vocabulary is not None:
            vocabulary = Vocabulary(
                self.vocabulary.label_of(old) for old in kept
            )
        compacted = BinaryMatrix(
            rows, n_columns=len(kept), vocabulary=vocabulary
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
        keep = [
            c
            for c in range(self._n_columns)
            if ones[c] >= min_ones
            and (max_ones is None or ones[c] <= max_ones)
        ]
        compacted, _ = self.compact_columns(keep)
        return compacted

    def drop_empty_rows(self) -> "BinaryMatrix":
        """Return a copy without all-zero rows."""
        return BinaryMatrix(
            [row for row in self._rows if row],
            n_columns=self._n_columns,
            vocabulary=self.vocabulary,
        )

    def to_dense(self) -> np.ndarray:
        """Return a dense ``uint8`` array (small matrices only)."""
        dense = np.zeros((self.n_rows, self._n_columns), dtype=np.uint8)
        for row_id, row in enumerate(self._rows):
            for column in row:
                dense[row_id, column] = 1
        return dense

    def to_csr(self):
        """Return a ``scipy.sparse.csr_matrix`` view (for the oracle)."""
        from scipy.sparse import csr_matrix

        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        for row_id, row in enumerate(self._rows):
            indptr[row_id + 1] = indptr[row_id] + len(row)
        indices = np.empty(self.nnz, dtype=np.int64)
        position = 0
        for row in self._rows:
            indices[position : position + len(row)] = row
            position += len(row)
        data = np.ones(self.nnz, dtype=np.int64)
        return csr_matrix(
            (data, indices, indptr), shape=(self.n_rows, self._n_columns)
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
            self._rows == other._rows and self._n_columns == other._n_columns
        )

    def __repr__(self) -> str:
        return (
            f"BinaryMatrix(n_rows={self.n_rows}, "
            f"n_columns={self._n_columns}, nnz={self.nnz})"
        )
