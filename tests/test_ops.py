"""Array kernels over row blocks (repro.matrix.ops, Section 4.2)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import repro.matrix.ops as ops
from repro.matrix.ops import (
    RowBlocks,
    block_co_matrix,
    co_occurrences,
    dense_block,
    pack_columns,
    pair_and_counts,
    pair_and_not_counts,
    pair_hits,
)


def _pack(*columns):
    """Pack equal-length 0/1 columns; row ``i`` of the result is column i."""
    return pack_columns(np.array(columns, dtype=np.float32).T)


def _window(rows, n_columns):
    """Per-column bitmaps of a row window, as the bitmap tail reads it.

    Returns ``(packed, to_active)``: ``packed[to_active[c]]`` is column
    ``c``'s bitmap; absent columns map to the all-zero guard row.
    """
    _, lengths, cols = RowBlocks(rows).take(len(rows))
    _, _, to_active, dense = dense_block(lengths, cols, n_columns)
    return pack_columns(dense), to_active


def popcount_rows(packed):
    """Ones per packed bitmap: the hits of each column with itself."""
    every = np.arange(len(packed))
    return pair_and_counts(packed, every, every)


def _pair(kernel, packed, to_active, left, right):
    return int(kernel(packed, to_active[[left]], to_active[[right]])[0])


class TestCounting:
    def test_count_ones(self):
        assert popcount_rows(_pack([1, 0, 1, 1])).tolist() == [3]

    def test_count_and_not_is_misses(self):
        packed = _pack([1, 1, 0, 1], [1, 0, 0, 0])
        assert pair_and_not_counts(packed, [0], [1]).tolist() == [2]

    def test_count_and_is_hits(self):
        packed = _pack([1, 1, 0, 1], [1, 0, 1, 1])
        assert pair_and_counts(packed, [0], [1]).tolist() == [2]

    def test_bitmaps_equal(self):
        """Two columns hold the same rows iff neither misses the other."""
        packed = _pack([1, 0], [1, 0], [0, 1])
        left, right = np.array([0, 1, 0]), np.array([1, 0, 2])
        misses = pair_and_not_counts(packed, left, right)
        assert misses.tolist() == [0, 0, 1]

    @given(
        bits_a=st.lists(st.booleans(), min_size=1, max_size=100),
        bits_b=st.lists(st.booleans(), min_size=1, max_size=100),
    )
    def test_counts_match_python_sets(self, bits_a, bits_b):
        n = min(len(bits_a), len(bits_b))
        bits_a, bits_b = bits_a[:n], bits_b[:n]
        set_a = {i for i, bit in enumerate(bits_a) if bit}
        set_b = {i for i, bit in enumerate(bits_b) if bit}
        packed = _pack(bits_a, bits_b)
        assert popcount_rows(packed).tolist() == [len(set_a), len(set_b)]
        assert pair_and_counts(packed, [0], [1]).tolist() == [
            len(set_a & set_b)
        ]
        assert pair_and_not_counts(packed, [0], [1]).tolist() == [
            len(set_a - set_b)
        ]


class TestPackRows:
    """A row window becomes one packed bitmap per active column."""

    def test_bitmap_per_column(self):
        rows = [(10, (0, 2)), (11, (2,)), (12, (0,))]
        packed, to_active = _window(rows, 3)
        assert popcount_rows(packed)[to_active[[0, 2]]].tolist() == [2, 2]
        assert _pair(pair_and_not_counts, packed, to_active, 0, 2) == 1
        assert _pair(pair_and_counts, packed, to_active, 0, 2) == 1

    def test_absent_column_is_all_zero(self):
        packed, to_active = _window([(0, (1,))], 10)
        assert popcount_rows(packed)[to_active[9]] == 0
        assert _pair(pair_and_not_counts, packed, to_active, 1, 9) == 1
        assert _pair(pair_and_not_counts, packed, to_active, 9, 1) == 0

    def test_column_filter(self):
        _, lengths, cols = RowBlocks([(0, (1, 2, 3))]).take(1)
        _, active, to_active, dense = dense_block(lengths, cols, 4)
        packed = pack_columns(dense[:, to_active[[2]]])
        assert active.tolist() == [1, 2, 3]
        assert popcount_rows(packed).tolist() == [1]

    def test_identical(self):
        packed, to_active = _window(
            [(0, (1, 2)), (1, (1, 2)), (2, (3,))], 4
        )
        assert _pair(pair_and_not_counts, packed, to_active, 1, 2) == 0
        assert _pair(pair_and_not_counts, packed, to_active, 2, 1) == 0
        assert _pair(pair_and_not_counts, packed, to_active, 1, 3) == 2

    def test_empty_window(self):
        assert RowBlocks([]).take(4) == (0, None, None)
        empty = np.empty(0, dtype=np.int64)
        counts, active, _, dense = dense_block(empty, empty, 3)
        assert len(active) == 0 and counts.tolist() == [0, 0, 0]
        assert popcount_rows(pack_columns(dense)).tolist() == [0]

    def test_memory_bytes_counts_packed_size(self):
        packed, _ = _window([(r, (0,)) for r in range(16)], 1)
        assert packed.shape == (2, 2)  # column 0 + guard, 16 bits each

    def test_contains_and_len(self):
        packed, to_active = _window([(0, (4, 5))], 7)
        assert to_active[[4, 5]].tolist() == [0, 1]
        assert to_active[6] == 2  # the guard
        assert len(packed) == 3


class TestBlockKernels:
    @staticmethod
    def _block(seed=0, n_rows=50, n_columns=12):
        generator = np.random.default_rng(seed)
        rows = [
            (i, tuple(np.flatnonzero(generator.random(n_columns) < 0.3)))
            for i in range(n_rows)
        ]
        _, lengths, cols = RowBlocks(rows).take(n_rows)
        return rows, dense_block(lengths, cols, n_columns)

    def test_pair_hits_paths_agree(self, monkeypatch):
        rows, (_, active, to_active, dense) = self._block()
        left = np.repeat(to_active[active], len(active))
        right = np.tile(to_active[active], len(active))
        want = [
            sum(1 for _, row in rows if a in row and b in row)
            for a in active for b in active
        ]
        co = block_co_matrix(dense, n_open=len(active))
        assert co is not None
        assert pair_hits(dense, left, right, co).tolist() == want
        assert pair_hits(dense, left, right).tolist() == want  # gather
        monkeypatch.setattr(ops, "_GATHER_PAIR_CELLS", 0)
        assert pair_hits(dense, left, right).tolist() == want  # packed

    def test_chunked_co_occurrences(self, monkeypatch):
        rows, (_, active, _, dense) = self._block(seed=1)
        picked = np.arange(len(active))
        whole = block_co_matrix(dense, n_open=len(active))

        def found(co):
            return sorted(
                (int(o), int(c), int(h))
                for owners, cands, hits in co_occurrences(
                    dense, active, picked, co
                )
                for o, c, h in zip(owners, cands, hits)
            )

        want = found(whole)
        assert want and all(o != c for o, c, _ in want)
        # Discovery must not touch the shared matrix the miss update reads.
        assert np.all(np.diag(whole)[:len(active)] > 0)
        # One owner row per yield, out of the shared matrix or one matmul.
        monkeypatch.setattr(ops, "_PAIR_CHUNK_ENTRIES", 1)
        slices = list(co_occurrences(dense, active, picked, whole))
        assert len(slices) == len(picked)
        assert all(len(set(owners.tolist())) <= 1 for owners, _, _ in slices)
        assert found(whole) == want
        assert found(None) == want
        monkeypatch.setattr(ops, "_DISCOVERY_CHUNK_ENTRIES", 1)
        assert found(None) == want
        assert block_co_matrix(dense, n_open=0) is None
