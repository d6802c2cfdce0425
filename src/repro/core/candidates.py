"""The counter array: per-column candidate lists with miss counters.

This is the central data structure of DMC (Figure 2(b) of the paper):
for each column ``c_j`` that is still "open", a list of candidate
columns ``c_k`` with the number of misses of ``c_j`` against ``c_k``
observed so far.  The structure also carries the memory model used by
the paper's Figure 3 and Figure 6(g)/(h) experiments: each candidate
entry costs a column id plus a miss counter, and each live list costs a
small fixed overhead.

Two layouts implement it:

- :class:`CandidateArray` — dict-of-dicts, one miss counter mutated at
  a time.  The row-at-a-time scans (:mod:`repro.core.miss_counting`)
  run on this.
- :class:`PairStore` — struct-of-arrays: parallel numpy vectors of
  owner ids, candidate ids, miss counts and budgets, updated and
  compacted whole-array at a time.  The blocked vector engine
  (:mod:`repro.core.vector`) runs on this; both layouts model memory
  with the same per-entry/per-list byte charges so the bitmap switch
  (and its hard budget) decides alike across engines.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

#: Bytes charged per candidate entry: a 4-byte column id + 4-byte counter.
BYTES_PER_ENTRY = 8

#: Bytes charged per live candidate list (header/pointer overhead).
BYTES_PER_LIST = 16


def list_pairs(lists: Mapping) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(list_owners, owners, cands)`` arrays of candidate lists (a dict
    of id collections), empty lists included in ``list_owners``."""
    list_owners = np.fromiter(lists, dtype=np.int64, count=len(lists))
    owners = np.repeat(list_owners, list(map(len, lists.values())))
    cands = np.fromiter(itertools.chain.from_iterable(lists.values()),
                        dtype=np.int64, count=len(owners))
    return list_owners, owners, cands


class CandidateArray:
    """All live candidate lists, keyed by the antecedent column id.

    The array keeps no peaks of its own: the scan reads
    :meth:`memory_bytes` at each row boundary, where the bitmap switch,
    its hard budget and ``ScanStats`` peaks all see the same value.
    """

    def __init__(self) -> None:
        self._lists: Dict[int, Dict[int, int]] = {}
        self._entries = 0

    # ------------------------------------------------------------------
    # List lifecycle
    # ------------------------------------------------------------------

    def get(self, column: int) -> Optional[Dict[int, int]]:
        """Return the candidate list for ``column``, or None."""
        return self._lists.get(column)

    def ensure(self, column: int) -> Dict[int, int]:
        """Return the list for ``column``, creating an empty one if needed."""
        existing = self._lists.get(column)
        if existing is not None:
            return existing
        created: Dict[int, int] = {}
        self._lists[column] = created
        return created

    def release(self, column: int) -> None:
        """Free the list for ``column`` (after its rules were emitted)."""
        released = self._lists.pop(column, None)
        if released is not None:
            self._entries -= len(released)

    # ------------------------------------------------------------------
    # Entry operations
    # ------------------------------------------------------------------

    def add(self, column: int, candidate: int, misses: int) -> None:
        """Insert ``candidate`` into ``column``'s list with ``misses``."""
        self._lists[column][candidate] = misses
        self._entries += 1

    def remove(self, column: int, candidate: int) -> None:
        """Delete ``candidate`` from ``column``'s list."""
        del self._lists[column][candidate]
        self._entries -= 1

    def to_pairs(self) -> Tuple[np.ndarray, ...]:
        """:func:`list_pairs` of the live lists, plus the miss counts."""
        misses = itertools.chain.from_iterable(
            map(dict.values, self._lists.values())
        )
        return list_pairs(self._lists) + (
            np.fromiter(misses, dtype=np.int64, count=self._entries),
        )

    # ------------------------------------------------------------------
    # Memory model
    # ------------------------------------------------------------------

    @property
    def total_entries(self) -> int:
        """Current number of candidate entries across all lists."""
        return self._entries

    @property
    def n_lists(self) -> int:
        """Current number of live lists."""
        return len(self._lists)

    def memory_bytes(self) -> int:
        """Modelled bytes of the counter array (paper's memory metric)."""
        return (
            self._entries * BYTES_PER_ENTRY + len(self._lists) * BYTES_PER_LIST
        )

    def __repr__(self) -> str:
        return (
            f"CandidateArray(lists={len(self._lists)}, "
            f"entries={self._entries}, bytes={self.memory_bytes()})"
        )


class PairStore:
    """Live candidate pairs as parallel numpy arrays (struct of arrays).

    One slot per live pair: ``owners[i]`` is the list-owning column
    ``c_j``, ``cands[i]`` the candidate ``c_k``, ``misses[i]`` the
    sparse-side miss count so far, and ``budgets[i]`` the pair's
    (immutable) miss budget.  Appends and pruning-sweep compactions
    replace the arrays wholesale, so every per-pair operation in the
    vector engine is a single numpy expression over these columns.
    """

    def __init__(self) -> None:
        self.owners = np.empty(0, dtype=np.int64)
        self.cands = np.empty(0, dtype=np.int64)
        self.misses = np.empty(0, dtype=np.int64)
        self.budgets = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.owners)

    def append(
        self,
        owners: np.ndarray,
        cands: np.ndarray,
        misses: np.ndarray,
        budgets: np.ndarray,
    ) -> None:
        """Admit a batch of new pairs."""
        if not len(owners):
            return
        self.owners = np.concatenate([self.owners, owners])
        self.cands = np.concatenate([self.cands, cands])
        self.misses = np.concatenate([self.misses, misses])
        self.budgets = np.concatenate([self.budgets, budgets])

    def compact(self, keep: np.ndarray) -> None:
        """Drop every pair whose ``keep`` flag is False."""
        if bool(keep.all()):
            return
        self.owners = self.owners[keep]
        self.cands = self.cands[keep]
        self.misses = self.misses[keep]
        self.budgets = self.budgets[keep]

    def keys(self, n_columns: int) -> np.ndarray:
        """Dense ``owner * n_columns + cand`` keys for dedup checks."""
        return self.owners * np.int64(n_columns) + self.cands

    def n_lists(self) -> int:
        """Number of distinct owners — the live "lists" of Figure 2(b)."""
        if not len(self.owners):
            return 0
        return int(np.count_nonzero(np.bincount(self.owners)))

    def memory_bytes(self, n_lists: Optional[int] = None) -> int:
        """Modelled counter-array bytes (same charges as CandidateArray)."""
        if n_lists is None:
            n_lists = self.n_lists()
        return len(self.owners) * BYTES_PER_ENTRY + n_lists * BYTES_PER_LIST

    def __repr__(self) -> str:
        return (
            f"PairStore(pairs={len(self.owners)}, "
            f"bytes={self.memory_bytes()})"
        )
