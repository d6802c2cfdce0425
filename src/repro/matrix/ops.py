"""Array kernels over row blocks, shared by the vector engine
(:mod:`repro.core.vector`) and the DMC-bitmap tail (:mod:`repro.core.
bitmap`).

Rows arrive ``block_rows`` at a time from a block source (``take(n) ->
(n_taken, lengths, cols)``); each block becomes a dense 0/1 matrix over
its active columns, against which whole *arrays* of column pairs are
evaluated — by one co-occurrence matmul, a gather of the pairs' dense
columns, or packed-bitmap popcounts (``numpy.packbits``, eight rows per
byte; misses are ``popcount(bm(c_j) & ~bm(c_k))``, the paper's Section
4.2 formula).  Nothing here builds a dense array over more than one
block.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple

import numpy as np

#: Default rows per block.  Large enough that the per-block Python
#: overhead vanishes against the array work; small enough that the
#: dense block matrix stays cache-friendly.
DEFAULT_BLOCK_ROWS = 1024

#: Hard cap on the block size: float32 block matmuls are exact only
#: while per-pair block hits stay below 2**24.
MAX_BLOCK_ROWS = 1 << 20

#: Blocks touching at most this many distinct columns may use one dense
#: ``D.T @ D`` co-occurrence matrix for both discovery and live-pair
#: hit lookup; wider blocks fall back to per-pair kernels for live
#: pairs and chunked matmuls for discovery.
DENSE_PAIR_COLUMNS = 2048

#: Entry budget (not bytes) for one discovery matmul chunk when the
#: dense co-occurrence matrix is off the table.
_DISCOVERY_CHUNK_ENTRIES = DENSE_PAIR_COLUMNS * DENSE_PAIR_COLUMNS

#: Entry budget for the co-occurrence rows discovery yields at once:
#: each pair costs a dozen int64 temporaries downstream.
_PAIR_CHUNK_ENTRIES = 1 << 18

#: With few pairs, per-pair hits come from gathering the pair's two
#: dense columns (cost ``pairs * block_rows`` cells); past this budget
#: the packed popcount kernels win despite their fixed ``packbits`` cost.
_GATHER_PAIR_CELLS = 1 << 20

# popcount of every byte value, used to count bits in packed arrays.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0: hardware popcount ufunc
    def _popcount_sum(bytes_array: np.ndarray, axis=None) -> np.ndarray:
        return np.bitwise_count(bytes_array).sum(axis=axis, dtype=np.int64)
else:  # pragma: no cover — exercised only on numpy < 2.0
    def _popcount_sum(bytes_array: np.ndarray, axis=None) -> np.ndarray:
        return _POPCOUNT[bytes_array].sum(axis=axis)


def pack_columns(dense: np.ndarray) -> np.ndarray:
    """Pack a dense 0/1 block of shape ``(n_rows, n_cols)`` column-wise.

    Returns a C-contiguous ``(n_cols, ceil(n_rows/8))`` uint8 array:
    row ``c`` is the packed bitmap of column ``c``, bit ``t`` set when
    ``dense[t, c]`` is nonzero.  Pad bits past ``n_rows`` are zero, so
    the pair kernels below never count phantom rows.
    """
    return np.ascontiguousarray(np.packbits(dense != 0, axis=0).T)


def pair_and_counts(
    packed: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Vectorized hits: ``popcount(packed[l] & packed[r])`` per pair.

    ``left``/``right`` are parallel index arrays into ``packed``'s rows;
    one int64 count comes back per pair.  Point an index at an all-zero
    guard row to model a column absent from the block.
    """
    return _popcount_sum(packed[left] & packed[right], axis=1)


def pair_and_not_counts(
    packed: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Vectorized misses: ``popcount(packed[l] & ~packed[r])`` per pair.

    Rows where the left column is 1 but the right column is 0.  Pad
    bits are zero on the left side, so ``~right``'s phantom tail never
    contributes.
    """
    return _popcount_sum(packed[left] & ~packed[right], axis=1)


class RowBlocks:
    """Block source over a ``(row_id, columns)`` iterator (streaming)."""

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


def dense_block(
    lengths: np.ndarray, cols: np.ndarray, n_columns: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One row block as a dense 0/1 matrix over its active columns.

    Returns ``(counts, active, to_active, dense)``: per-column ones in
    the block, the active column ids, the global -> active index map,
    and the float32 ``(n_rows, n_active + 1)`` matrix.  The last dense
    column is an all-zero guard: ``to_active`` sends every column absent
    from the block there, so pair lookups on it just return 0.
    """
    counts = np.bincount(cols, minlength=n_columns)
    active = np.flatnonzero(counts)
    n_active = len(active)
    to_active = np.full(n_columns, n_active, dtype=np.int64)
    to_active[active] = np.arange(n_active)
    dense = np.zeros((len(lengths), n_active + 1), dtype=np.float32)
    dense[np.repeat(np.arange(len(lengths)), lengths), to_active[cols]] = 1.0
    return counts, active, to_active, dense


def block_co_matrix(
    dense: np.ndarray, n_open: int,
    dense_pair_columns: int = DENSE_PAIR_COLUMNS,
) -> Optional[np.ndarray]:
    """The block's co-occurrence matrix ``D.T @ D`` when the block is
    narrow and at least half its active columns are open for discovery
    (``n_open``); None when chunked kernels do less work."""
    n_active = dense.shape[1] - 1
    if n_active <= dense_pair_columns and 2 * n_open >= n_active:
        return dense.T @ dense
    return None


def pair_hits(
    dense: np.ndarray, left: np.ndarray, right: np.ndarray,
    co: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Block hits of the pairs ``(left[i], right[i])`` (dense indices)."""
    if co is not None:
        return co[left, right].astype(np.int64)
    if len(left) * dense.shape[0] <= _GATHER_PAIR_CELLS:
        return np.einsum(
            "ij,ij->j", dense[:, left], dense[:, right]
        ).astype(np.int64)
    return pair_and_counts(pack_columns(dense), left, right)


def co_occurrences(
    dense: np.ndarray, active: np.ndarray, picked: np.ndarray,
    co: Optional[np.ndarray] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(owners, cands, hits)`` for every pair co-occurring in the
    block whose owner sits at a dense index in ``picked``.

    Ids are global column ids and ``owners != cands``.  Without ``co``
    the matmuls run in chunks of at most ``_DISCOVERY_CHUNK_ENTRIES``
    entries, so discovery never builds a full co-occurrence matrix of a
    wide block; a yield covers ``_PAIR_CHUNK_ENTRIES`` entries' rows.
    """
    width = max(len(active), 1)
    chunk = max(1, _DISCOVERY_CHUNK_ENTRIES // width)
    step = max(1, _PAIR_CHUNK_ENTRIES // width)
    for lo in range(0, len(picked), chunk):
        rows = picked[lo:lo + chunk]
        co_rows = co[rows] if co is not None else dense[:, rows].T @ dense
        co_rows[np.arange(len(rows)), rows] = 0  # a column with itself
        for at in range(0, len(rows), step):
            owner_pos, cand_pos = np.nonzero(co_rows[at:at + step])
            owner_pos += at
            yield (
                active[rows[owner_pos]], active[cand_pos],
                co_rows[owner_pos, cand_pos].astype(np.int64),
            )
