"""Array kernels over row blocks (repro.matrix.ops, Section 4.2)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import repro.matrix.ops as ops
from repro.matrix.ops import (
    CanonicalOrder,
    RowBlocks,
    block_bitmaps,
    co_occurrences,
    pair_and_counts,
)
from tests.conftest import dense_block


def _pack(*columns):
    """Pack equal-length 0/1 columns; row ``i`` of the result is column i."""
    return np.packbits(np.array(columns, dtype=bool), axis=1)


def _window(rows, n_columns):
    """Per-column bitmaps of a row window, as the bitmap tail reads it.

    Returns ``(packed, to_active)``: ``packed[to_active[c]]`` is column
    ``c``'s bitmap; absent columns map to the all-zero guard row.
    """
    _, lengths, cols = RowBlocks(rows).take(len(rows))
    _, _, to_active, bitmaps = block_bitmaps(lengths, cols, n_columns)
    return bitmaps, to_active


def popcount_rows(packed):
    """Ones per packed bitmap: the hits of each column with itself."""
    every = np.arange(len(packed))
    return pair_and_counts(packed, every, every)


def _pair(kernel, packed, to_active, left, right):
    return int(kernel(packed, to_active[[left]], to_active[[right]])[0])


def _misses(packed, left, right):
    """The paper's misses, ``popcount(bm(l) & ~bm(r))``, as the kernels
    count them: ``l``'s ones minus the pair's hits."""
    left, right = np.asarray(left), np.asarray(right)
    return popcount_rows(packed)[left] - pair_and_counts(packed, left, right)


class TestCounting:
    def test_count_ones(self):
        assert popcount_rows(_pack([1, 0, 1, 1])).tolist() == [3]

    def test_count_and_not_is_misses(self):
        packed = _pack([1, 1, 0, 1], [1, 0, 0, 0])
        assert _misses(packed, [0], [1]).tolist() == [2]

    def test_count_and_is_hits(self):
        packed = _pack([1, 1, 0, 1], [1, 0, 1, 1])
        assert pair_and_counts(packed, [0], [1]).tolist() == [2]

    def test_bitmaps_equal(self):
        """Two columns hold the same rows iff neither misses the other."""
        packed = _pack([1, 0], [1, 0], [0, 1])
        left, right = np.array([0, 1, 0]), np.array([1, 0, 2])
        misses = _misses(packed, left, right)
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
        assert _misses(packed, [0], [1]).tolist() == [
            len(set_a - set_b)
        ]


class TestPackRows:
    """A row window becomes one packed bitmap per active column."""

    def test_bitmap_per_column(self):
        rows = [(10, (0, 2)), (11, (2,)), (12, (0,))]
        packed, to_active = _window(rows, 3)
        assert popcount_rows(packed)[to_active[[0, 2]]].tolist() == [2, 2]
        assert _misses(packed, to_active[[0]], to_active[[2]])[0] == 1
        assert _pair(pair_and_counts, packed, to_active, 0, 2) == 1

    def test_absent_column_is_all_zero(self):
        packed, to_active = _window([(0, (1,))], 10)
        assert popcount_rows(packed)[to_active[9]] == 0
        assert _misses(packed, to_active[[1]], to_active[[9]])[0] == 1
        assert _misses(packed, to_active[[9]], to_active[[1]])[0] == 0

    def test_column_filter(self):
        _, lengths, cols = RowBlocks([(0, (1, 2, 3))]).take(1)
        _, active, to_active, bitmaps = block_bitmaps(lengths, cols, 4)
        packed = bitmaps[to_active[[2]]]
        assert active.tolist() == [1, 2, 3]
        assert popcount_rows(packed).tolist() == [1]

    def test_identical(self):
        packed, to_active = _window(
            [(0, (1, 2)), (1, (1, 2)), (2, (3,))], 4
        )
        assert _misses(packed, to_active[[1]], to_active[[2]])[0] == 0
        assert _misses(packed, to_active[[2]], to_active[[1]])[0] == 0
        assert _misses(packed, to_active[[1]], to_active[[3]])[0] == 2

    def test_empty_window(self):
        assert RowBlocks([]).take(4) == (0, None, None)
        empty = np.empty(0, dtype=np.int64)
        counts, active, _, bitmaps = block_bitmaps(empty, empty, 3)
        assert len(active) == 0 and counts.tolist() == [0, 0, 0]
        assert popcount_rows(bitmaps).tolist() == [0]

    def test_memory_bytes_counts_packed_size(self):
        packed, _ = _window([(r, (0,)) for r in range(16)], 1)
        assert packed.shape == (2, 2)  # column 0 + guard, 16 bits each

    def test_contains_and_len(self):
        packed, to_active = _window([(0, (4, 5))], 7)
        assert to_active[[4, 5]].tolist() == [0, 1]
        assert to_active[6] == 2  # the guard
        assert len(packed) == 3


@st.composite
def row_blocks(draw):
    """``(rows, n_columns)``: up to 70 sorted, deduplicated rows (so
    most row counts are not multiples of 8; empty rows, empty blocks and
    one-column blocks included) over a few column ids at the bottom or
    the top of the id range."""
    n_columns = draw(st.integers(min_value=1, max_value=300))
    width = draw(st.integers(min_value=1, max_value=min(n_columns, 12)))
    low = draw(st.sampled_from((0, n_columns - width)))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=low, max_value=low + width - 1)),
        max_size=70,
    ))
    return [sorted(row) for row in rows], n_columns


class TestBlockBitmaps:
    """The packed bitmaps set from a block's entries, and the popcount
    kernel over them (both its implementations), against a dense
    reference."""

    @given(block=row_blocks())
    def test_against_dense_reference(self, block):
        rows, n_columns = block
        lengths = np.array([len(row) for row in rows], dtype=np.int64)
        cols = np.array([c for row in rows for c in row], dtype=np.int64)
        _, active, to_active, bitmaps = block_bitmaps(
            lengths, cols, n_columns
        )
        n_active = len(active)
        dense = dense_block(lengths, cols, to_active, n_active)
        assert bitmaps.dtype == np.uint8
        assert np.array_equal(
            bitmaps, np.packbits(dense.T.astype(bool), axis=1)
        )
        assert not bitmaps[n_active].any()  # the guard
        # Every ordered pair of active columns and the guard.
        every = np.arange(n_active + 1)
        left, right = np.repeat(every, len(every)), np.tile(every, len(every))
        held = [set() for _ in every]
        for row_id, row in enumerate(rows):
            for column in row:
                held[to_active[column]].add(row_id)
        want = [len(held[a] & held[b]) for a, b in zip(left, right)]
        assert pair_and_counts(bitmaps, left, right).tolist() == want
        assert ops._table_popcount_sum(
            bitmaps[left] & bitmaps[right], axis=1
        ).tolist() == want


class TestBlockKernels:
    @staticmethod
    def _block(seed=0, n_rows=50, n_columns=12):
        generator = np.random.default_rng(seed)
        rows = [
            (i, tuple(np.flatnonzero(generator.random(n_columns) < 0.3)))
            for i in range(n_rows)
        ]
        _, lengths, cols = RowBlocks(rows).take(n_rows)
        counts, active, to_active, bitmaps = block_bitmaps(
            lengths, cols, n_columns
        )
        return rows, (lengths, cols, counts, active, to_active), bitmaps

    def test_pair_hits_paths_agree(self):
        """The popcount kernel and its numpy < 2 table twin count every
        pair's block hits."""
        rows, block, bitmaps = self._block()
        active, to_active = block[3:]
        left = np.repeat(to_active[active], len(active))
        right = np.tile(to_active[active], len(active))
        want = [
            sum(1 for _, row in rows if a in row and b in row)
            for a in active for b in active
        ]
        assert pair_and_counts(bitmaps, left, right).tolist() == want
        assert ops._table_popcount_sum(
            bitmaps[left] & bitmaps[right], axis=1
        ).tolist() == want

    def test_chunked_co_occurrences(self, monkeypatch):
        rows, block, _ = self._block(seed=1)
        lengths, cols, _, active, to_active = block
        picked = np.arange(len(active))
        want = _discovered(lengths, cols, to_active, active, picked)
        assert want and all(o != c for o, c, _ in want)
        assert want == _counted(
            [row for _, row in rows], set(active.tolist())
        )
        # One owner row per yield, out of one sparse product.
        monkeypatch.setattr(ops, "_PAIR_CHUNK_ENTRIES", 1)
        slices = list(co_occurrences(
            lengths, cols, to_active, active, picked,
            _all_pairs(len(to_active)),
        ))
        assert len(slices) == len(picked)
        assert all(len(set(owners.tolist())) <= 1 for owners, _, _ in slices)
        assert _discovered(lengths, cols, to_active, active, picked) == want


def _all_pairs(n_columns):
    """Windows covering every other column of each row: discovery in
    both directions with no ceiling."""
    return CanonicalOrder(np.zeros(n_columns), after_owner=False)


def _discovered(lengths, cols, to_active, active, picked, allowance=None):
    """Every ``(owner, cand, hits)`` co_occurrences yields over
    :func:`_all_pairs` windows, sorted."""
    return sorted(
        (int(o), int(c), int(h))
        for owners, cands, hits in co_occurrences(
            lengths, cols, to_active, active, picked,
            _all_pairs(len(to_active)), None, allowance,
        )
        for o, c, h in zip(owners, cands, hits)
    )


def _counted(rows, picked_ids):
    """The same triples, counted row by row in Python."""
    hits = {}
    for row in rows:
        for owner in set(row) & picked_ids:
            for cand in set(row) - {owner}:
                hits[owner, cand] = hits.get((owner, cand), 0) + 1
    return sorted((o, c, h) for (o, c), h in hits.items())


def _dense_reference(lengths, cols, to_active, active, picked):
    """The same triples read off the co-occurrence matrix ``D.T @ D``
    of the block's dense reference."""
    dense = dense_block(lengths, cols, to_active, len(active))
    co = dense.T @ dense
    return sorted(
        (int(active[o]), int(active[c]), int(co[o, c]))
        for o in picked for c in range(len(active))
        if c != o and co[o, c]
    )


class TestSparseDiscovery:
    """The CSR discovery kernel against the dense co-occurrence matrix
    and a row-by-row count."""

    @staticmethod
    def _check(rows, n_columns, seed=0):
        _, lengths, cols = RowBlocks(
            list(enumerate(rows))
        ).take(max(len(rows), 1))
        if lengths is None:  # no rows at all
            lengths = cols = np.empty(0, dtype=np.int64)
        _, active, to_active, _ = block_bitmaps(lengths, cols, n_columns)
        generator = np.random.default_rng(seed)
        picked = np.flatnonzero(generator.random(len(active)) < 0.6)
        sparse = _discovered(lengths, cols, to_active, active, picked)
        assert sparse == _dense_reference(
            lengths, cols, to_active, active, picked
        )
        assert sparse == _counted(rows, set(active[picked].tolist()))
        return sparse

    def test_random_blocks(self):
        for seed in range(12):
            generator = np.random.default_rng(seed)
            n_columns = int(generator.integers(2, 40))
            density = generator.uniform(0.02, 0.5)
            rows = [
                tuple(np.flatnonzero(generator.random(n_columns) < density))
                for _ in range(int(generator.integers(1, 80)))
            ]
            self._check(rows, n_columns, seed)

    def test_wide_sparse_blocks(self):
        """Few products next to many owner-by-column cells: the hits are
        counted by sorting the products, not in place."""
        for seed in range(6):
            generator = np.random.default_rng(seed)
            rows = [
                tuple(np.flatnonzero(generator.random(500) < 0.01))
                for _ in range(60)
            ]
            self._check(rows, 500, seed)

    def test_one_very_dense_row(self):
        generator = np.random.default_rng(3)
        rows = [
            tuple(np.flatnonzero(generator.random(300) < 0.01))
            for _ in range(50)
        ]
        rows[17] = tuple(range(300))
        assert self._check(rows, 300)

    def test_empty_block(self):
        assert self._check([(), (), ()], 5) == []
        assert self._check([], 5) == []

    def test_one_column_block(self):
        assert self._check([(0,), (), (0,)], 1) == []

    def test_tiny_chunk_bound_forces_many_chunks(self, monkeypatch):
        generator = np.random.default_rng(5)
        rows = [
            tuple(np.flatnonzero(generator.random(30) < 0.3))
            for _ in range(40)
        ]
        want = self._check(rows, 30)
        for bound in (1, 7, 50):
            monkeypatch.setattr(ops, "_PAIR_CHUNK_ENTRIES", bound)
            assert self._check(rows, 30) == want


class TestAllowance:
    """An owner's allowance caps discovery to its first rows of the
    block."""

    @staticmethod
    def _allowed(rows, allowance):
        """The triples counted row by row over each owner's first
        ``allowance[owner]`` rows."""
        hits, seen = {}, {}
        for row in rows:
            for owner in set(row) & set(allowance):
                seen[owner] = seen.get(owner, 0) + 1
                if seen[owner] > allowance[owner]:
                    continue
                for cand in set(row) - {owner}:
                    hits[owner, cand] = hits.get((owner, cand), 0) + 1
        return sorted((o, c, h) for (o, c), h in hits.items())

    def test_against_row_reference(self, monkeypatch):
        for bound in (ops._PAIR_CHUNK_ENTRIES, 5):
            monkeypatch.setattr(ops, "_PAIR_CHUNK_ENTRIES", bound)
            for seed in range(12):
                generator = np.random.default_rng(seed)
                n_columns = int(generator.integers(2, 30))
                density = generator.uniform(0.05, 0.6)
                rows = [
                    tuple(np.flatnonzero(
                        generator.random(n_columns) < density
                    ))
                    for _ in range(int(generator.integers(1, 40)))
                ]
                _, lengths, cols = RowBlocks(
                    list(enumerate(rows))
                ).take(len(rows))
                counts, active, to_active, _ = block_bitmaps(
                    lengths, cols, n_columns
                )
                picked = np.flatnonzero(
                    generator.random(len(active)) < 0.7
                )
                # From one row up to past every row of the owner.
                allowance = generator.integers(
                    1, counts[active[picked]] + 2
                )
                want = self._allowed(rows, dict(zip(
                    active[picked].tolist(), allowance.tolist()
                )))
                assert _discovered(
                    lengths, cols, to_active, active, picked, allowance,
                ) == want, (bound, seed)
