"""Row re-ordering by density buckets (paper Section 4.1).

The denser the rows that come first, the more candidate memory DMC-base
needs, so sparser rows should be scanned first.  Sorting all rows by
density is expensive; the paper instead assigns each row to a bucket by
the power-of-two range its density falls in — bucket ``i`` holds rows
with between ``2**i`` and ``2**(i+1) - 1`` ones — and scans buckets from
sparsest to densest.  There are at most ``ceil(log2(m)) + 1`` buckets.

Rows keep their original relative order inside a bucket, mirroring the
paper's single-pass bucketing.  All-zero rows are excluded entirely:
they cannot affect any counter.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.matrix.binary_matrix import BinaryMatrix


def bucket_index(density: int) -> int:
    """Return the bucket index for a row with ``density`` ones.

    Bucket ``i`` covers densities in ``[2**i, 2**(i+1))``.
    """
    if density <= 0:
        raise ValueError("bucket_index is defined for positive densities")
    return density.bit_length() - 1


def bucket_indices(densities: np.ndarray) -> np.ndarray:
    """:func:`bucket_index` of every (positive) density in an array."""
    # A row's bucket is the number of powers of two up to its length,
    # less one: ``length.bit_length() - 1``, in integers throughout.
    top = int(densities.max(initial=0)).bit_length()
    powers = np.left_shift(1, np.arange(top, dtype=np.int64))
    return np.searchsorted(powers, densities, side="right") - 1


def _bucketed(matrix: BinaryMatrix):
    """``(rows, buckets)``: the non-empty row ids, grouped by bucket
    from the sparsest up (original order within a bucket), and each
    one's :func:`bucket_index`."""
    lengths = matrix.row_densities()
    rows = np.flatnonzero(lengths)
    buckets = bucket_indices(lengths[rows])
    by_bucket = np.argsort(buckets, kind="stable")
    return rows[by_bucket], buckets[by_bucket]


def density_buckets(matrix: BinaryMatrix) -> List[List[int]]:
    """Partition row ids into density buckets, sparsest bucket first.

    Returns a list of buckets; bucket ``i`` contains the ids of rows
    whose density lies in ``[2**i, 2**(i+1))``, in original row order.
    Empty rows are dropped.  Trailing empty buckets are trimmed.
    """
    rows, buckets = _bucketed(matrix)
    if not len(rows):
        return []
    ends = np.cumsum(np.bincount(buckets))
    return [chunk.tolist() for chunk in np.split(rows, ends[:-1])]


def scan_order(matrix: BinaryMatrix, sparsest_first: bool = True) -> List[int]:
    """Return the row scan order used by DMC's second pass.

    With ``sparsest_first`` (the default, per Section 4.1), rows are
    visited bucket by bucket from the sparsest bucket up.  With
    ``sparsest_first=False`` the original order is returned with empty
    rows removed — the unoptimized baseline used in the Figure 3 and
    ablation experiments.
    """
    if not sparsest_first:
        return np.flatnonzero(matrix.row_densities()).tolist()
    return _bucketed(matrix)[0].tolist()


def exact_sparsest_order(matrix: BinaryMatrix) -> List[int]:
    """Return rows fully sorted by density (ties keep original order).

    The paper notes exact sorting is what bucketing approximates; the
    exact order is used by tests that reproduce the Example 3.1 candidate
    history ``(1, 2, 3, 5, 6, 8, 5, 2, 2)``.
    """
    lengths = matrix.row_densities()
    rows = np.flatnonzero(lengths)
    return rows[np.argsort(lengths[rows], kind="stable")].tolist()


def order_is_valid(matrix: BinaryMatrix, order: Sequence[int]) -> bool:
    """Check that ``order`` is a permutation of the non-empty rows."""
    return sorted(order) == scan_order(matrix, sparsest_first=False)
