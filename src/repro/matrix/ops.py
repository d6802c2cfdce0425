"""Array kernels over row blocks, shared by the vector engine
(:mod:`repro.core.vector`) and the DMC-bitmap tail (:mod:`repro.core.
bitmap`).

Rows arrive ``block_rows`` at a time from a block source (``take(n) ->
(n_taken, lengths, cols)``); each block becomes the packed bitmaps of
its active columns (eight rows per byte, ``numpy.packbits`` order),
built from its entries at a cost that follows its ones, against which
whole *arrays* of column pairs are evaluated by popcounts of the
pairs' ANDed bitmaps (:func:`pair_and_counts`).  Those count hits; the
paper's Section 4.2 misses, ``popcount(bm(c_j) & ~bm(c_k))``, are
``ones(c_j)`` minus them.  Pair *discovery* reads sparse products over
the block's CSR form (:func:`co_occurrences`), whose cost follows the
block's ones rather than its cells.  Both kernels are integer
arithmetic, so every count is exact at any block size, and nothing
here builds an array over a block's rows and active columns other
than its packed bitmaps.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.matrix.binary_matrix import concat_ranges

#: Rows per block of every vector scan (a constant, not a knob).  Large
#: enough that the per-block Python overhead vanishes against the array
#: work; small enough that the block's bitmaps stay cache-friendly.
DEFAULT_BLOCK_ROWS = 1024

#: Entry budget for the co-occurrence pairs discovery yields at once:
#: each pair costs a dozen int64 temporaries downstream.
_PAIR_CHUNK_ENTRIES = 1 << 18

# popcount of every byte value, for numpy < 2.0 (no ``bitwise_count``).
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def _table_popcount_sum(bytes_array: np.ndarray, axis=None) -> np.ndarray:
    """Set bits of a uint8 array, summed along ``axis``, by table."""
    return _POPCOUNT[bytes_array].sum(axis=axis)


def _ufunc_popcount_sum(bytes_array: np.ndarray, axis=None) -> np.ndarray:
    """The same sum by numpy 2's hardware popcount ufunc."""
    return np.bitwise_count(bytes_array).sum(axis=axis, dtype=np.int64)


_popcount_sum = (
    _ufunc_popcount_sum if hasattr(np, "bitwise_count")
    else _table_popcount_sum
)


def pair_and_counts(
    packed: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Vectorized hits: ``popcount(packed[l] & packed[r])`` per pair.

    ``left``/``right`` are parallel index arrays into ``packed``'s rows;
    one int64 count comes back per pair.  Point an index at an all-zero
    guard row to model a column absent from the block.
    """
    return _popcount_sum(packed[left] & packed[right], axis=1)


class RowBlocks:
    """Block source over a ``(row_id, columns)`` iterator: the rows a
    serial scan hands over to the DMC-bitmap tail."""

    def __init__(self, rows: Iterator[Tuple[int, Tuple[int, ...]]]) -> None:
        self._rows = iter(rows)

    def take(
        self, n: int
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        block = [row for _, row in itertools.islice(self._rows, n)]
        if not block:
            return 0, None, None
        lengths = np.array(list(map(len, block)), dtype=np.int64)
        cols = np.fromiter(
            itertools.chain.from_iterable(block), dtype=np.int64,
            count=int(lengths.sum()),
        )
        return len(block), lengths, cols


def block_bitmaps(
    lengths: np.ndarray, cols: np.ndarray, n_columns: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One row block as the packed bitmaps of its active columns.

    Returns ``(counts, active, to_active, bitmaps)``: per-column ones in
    the block, the active column ids, the global -> active index map,
    and the uint8 ``(n_active + 1, ceil(n_rows/8))`` bitmaps, row
    ``to_active[c]`` holding column ``c`` as ``numpy.packbits`` would.
    Pad bits past ``n_rows`` are zero.  The last row is an all-zero
    guard: ``to_active`` sends every column absent from the block there,
    so pair lookups on it just return 0.
    """
    counts = np.bincount(cols, minlength=n_columns)
    active = np.flatnonzero(counts)
    n_active = len(active)
    to_active = np.full(n_columns, n_active, dtype=np.int64)
    to_active[active] = np.arange(n_active)
    n_bytes = (len(lengths) + 7) >> 3
    rows = np.repeat(np.arange(len(lengths)), lengths)
    bitmaps = np.zeros((n_active + 1) * n_bytes, dtype=np.uint8)
    # Block sources serve deduplicated rows (``counts`` relies on it
    # too), so no bit is set twice and adding the bits ORs them;
    # ``np.add.at`` is four times faster than ``np.bitwise_or.at``.
    np.add.at(
        bitmaps, to_active[cols] * n_bytes + (rows >> 3),
        (128 >> (rows & 7)).astype(np.uint8),
    )
    return counts, active, to_active, bitmaps.reshape(n_active + 1, n_bytes)


class CanonicalOrder:
    """The paper's canonical column order (Section 2): by ``ones``, ties
    broken by id.

    ``rank`` places every column in it.  An owner's discovery window is
    the rank range just after its own rank up to an exclusive end: the
    first rank whose ``ones`` exceed the owner's ceiling on a
    candidate's ``ones`` (:meth:`ends`).  With ``after_owner=False``
    (a policy pairing in both directions) the window starts at the
    row's first column instead, the owner itself excluded.
    """

    def __init__(self, ones: np.ndarray, after_owner: bool) -> None:
        ones = np.asarray(ones, dtype=np.int64)
        # A stable sort by ``ones`` keeps equal counts in id order.
        order = np.argsort(ones, kind="stable")
        self.rank = np.empty(len(ones), dtype=np.int64)
        self.rank[order] = np.arange(len(ones))
        self._sorted_ones = ones[order]
        self.after_owner = after_owner

    def ends(self, ceilings: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """The exclusive end rank of each window whose candidates may
        have at most ``ceilings`` ones; None (no cap) for None."""
        if ceilings is None:
            return None
        return np.searchsorted(self._sorted_ones, ceilings, side="right")


def co_occurrences(
    lengths: np.ndarray, cols: np.ndarray, to_active: np.ndarray,
    active: np.ndarray, picked: np.ndarray, order: CanonicalOrder,
    ends: Optional[np.ndarray] = None,
    allowance: Optional[np.ndarray] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(owners, cands, hits)`` for every pair co-occurring in the
    block whose owner sits at an active index in ``picked`` and whose
    candidate lies in the owner's window of ``order``, ending at
    ``ends`` (parallel to ``picked``; default: no end).

    The block is given as its rows (``lengths``/``cols``, global column
    ids) plus ``to_active``/``active`` from :func:`block_bitmaps`.  Ids
    come back global and ``owners != cands``.  ``allowance`` (parallel
    to ``picked``; default: every row) caps each owner to its first
    that many rows of the block: only those rows pair it, and ``hits``
    count only them.  The block is read as a sparse matrix ``D`` in
    CSR form, each row's columns sorted by canonical rank (one sort of
    ``row * n_columns + rank``), plus its column-major transpose: each
    chunk of owners costs one sparse product ``D.T[owners] @ D`` over
    the allowed rows and the windows, every row adding one hit to each
    of its columns.  An owner's products in a row start right after
    its own entry (at the row's first entry with ``after_owner=False``)
    and stop at the row's end, or at its first entry past the window,
    found by one ``searchsorted``.  The hits are counted in place when
    the chunk's owner-by-column cells are few next to its products,
    and by sorting the products otherwise.  An owner's work is the
    number of its products, so the empty cells of a sparse block and
    the columns outside a window cost nothing.  A chunk keeps its
    summed owner work, and so its pairs, within
    ``_PAIR_CHUNK_ENTRIES`` (one owner at least).
    """
    if not len(picked):
        return
    width = max(len(active), 1)
    after_owner = order.after_owner
    n_columns = len(to_active)
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    # Each row's columns in canonical order; ``keys`` stays sorted.
    keys = row_of * n_columns + order.rank[cols]
    by_rank = np.argsort(keys)
    keys = keys[by_rank]
    local = to_active[cols[by_rank]]
    row_stop = np.cumsum(lengths)
    # The transpose D.T: each column's entries, in row order.  Sorted
    # as the narrowest unsigned type, numpy's stable sort is a radix
    # sort (ten times faster than on int64 for 16-bit ids).
    holding = np.argsort(
        local.astype(np.min_scalar_type(width)), kind="stable"
    )
    column_rows = np.bincount(local, minlength=width)
    column_start = np.cumsum(column_rows) - column_rows
    taken = column_rows[picked]
    if allowance is not None:
        taken = np.minimum(taken, allowance)
    # Every picked owner's allowed entries, owner after owner, and the
    # range of each entry's row its products cover.
    entries = holding[concat_ranges(column_start[picked], taken)]
    rows = row_of[entries]
    first = entries + 1 if after_owner else row_stop[rows] - lengths[rows]
    if ends is None:
        stop = row_stop[rows]
    else:
        stop = np.maximum(first, np.searchsorted(
            keys, rows * n_columns + np.repeat(ends, taken)
        ))
    sizes = stop - first
    entry_end = np.cumsum(taken)
    summed = np.concatenate(([0], np.cumsum(sizes)))
    work_end = summed[entry_end]  # summed work through each owner
    lo = 0
    while lo < len(picked):
        done = work_end[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(
            work_end, done + _PAIR_CHUNK_ENTRIES, side="right"
        )))
        owners = picked[lo:hi]
        span = slice(entry_end[lo] - taken[lo], entry_end[hi - 1])
        # One key ``owner_pos * width + cand`` per (owner, row, cand)
        # product; a key's multiplicity is the pair's hits.
        products = np.repeat(
            np.repeat(np.arange(len(owners)) * width, taken[lo:hi]),
            sizes[span],
        ) + local[concat_ranges(first[span], sizes[span])]
        cells = len(owners) * width
        if cells <= 2 * len(products):  # dense enough to count in place
            counts = np.bincount(products, minlength=cells)
            products = np.flatnonzero(counts)
            hits = counts[products]
        else:
            products.sort()
            head = np.flatnonzero(np.diff(products, prepend=-1))
            hits = np.diff(head, append=len(products))
            products = products[head]
        owner_pos, cand_pos = np.divmod(products, width)
        if not after_owner:
            keep = cand_pos != owners[owner_pos]  # a column with itself
            owner_pos, cand_pos, hits = (
                owner_pos[keep], cand_pos[keep], hits[keep]
            )
        yield active[owners[owner_pos]], active[cand_pos], hits
        lo = hi
