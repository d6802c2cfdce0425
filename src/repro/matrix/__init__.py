"""The 0/1 matrix substrate that every DMC algorithm operates on.

The paper (Section 2) views the data as a boolean matrix ``M`` with ``n``
rows ("transactions") and ``m`` columns ("attributes").  This package
provides:

- :class:`~repro.matrix.binary_matrix.BinaryMatrix` — the matrix itself,
  stored row-major as sorted column-id tuples with cached column views.
- :class:`~repro.matrix.binary_matrix.Vocabulary` — label <-> column-id
  mapping for datasets whose attributes are words or URLs.
- :mod:`~repro.matrix.reorder` — the Section 4.1 row re-ordering via
  power-of-two density buckets.
- :mod:`~repro.matrix.ops` — array kernels over row blocks (dense
  blocks, packed-bitmap popcounts) shared by the vector engine and the
  DMC-bitmap tail.
- :mod:`~repro.matrix.io` — text and ``.npz`` persistence.
"""

from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary
from repro.matrix.io import (
    load_npz,
    load_transactions,
    save_npz,
    save_transactions,
)
from repro.matrix.reorder import (
    bucket_index,
    density_buckets,
    scan_order,
)

__all__ = [
    "BinaryMatrix",
    "Vocabulary",
    "bucket_index",
    "density_buckets",
    "load_npz",
    "load_transactions",
    "save_npz",
    "save_transactions",
    "scan_order",
]
