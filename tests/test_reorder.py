"""Row re-ordering by density buckets (repro.matrix.reorder, Section 4.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import (
    bucket_index,
    density_buckets,
    exact_sparsest_order,
    order_is_valid,
    scan_order,
)


class TestBucketIndex:
    def test_powers_of_two_open_new_buckets(self):
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 1
        assert bucket_index(4) == 2
        assert bucket_index(7) == 2
        assert bucket_index(8) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(0)

    @given(density=st.integers(min_value=1, max_value=10**9))
    def test_bucket_range_invariant(self, density):
        bucket = bucket_index(density)
        assert 2 ** bucket <= density < 2 ** (bucket + 1)


class TestDensityBuckets:
    def test_rows_grouped_by_range(self):
        matrix = BinaryMatrix(
            [[0], [0, 1, 2], [0, 1], [], [0, 1, 2, 3]], n_columns=4
        )
        buckets = density_buckets(matrix)
        assert buckets[0] == [0]          # density 1
        assert buckets[1] == [1, 2]       # densities 3 and 2
        assert buckets[2] == [4]          # density 4

    def test_empty_rows_dropped(self):
        matrix = BinaryMatrix([[], []], n_columns=3)
        assert density_buckets(matrix) == []

    def test_bucket_count_bound(self):
        """No more than ceil(log2(m)) + 1 buckets (paper Section 4.1)."""
        matrix = BinaryMatrix([[c for c in range(100)]], n_columns=100)
        assert len(density_buckets(matrix)) <= 100 .bit_length() + 1

    def test_original_order_within_bucket(self):
        matrix = BinaryMatrix([[0, 1], [2, 3], [4, 5]], n_columns=6)
        assert density_buckets(matrix)[1] == [0, 1, 2]


class TestScanOrder:
    def test_sparsest_first(self):
        matrix = BinaryMatrix(
            [[0, 1, 2, 3], [0], [1, 2]], n_columns=4
        )
        assert scan_order(matrix) == [1, 2, 0]

    def test_original_order_skips_empty_rows(self):
        matrix = BinaryMatrix([[0], [], [1]], n_columns=2)
        assert scan_order(matrix, sparsest_first=False) == [0, 2]

    def test_order_is_always_valid(self):
        matrix = BinaryMatrix(
            [[0, 1], [], [2], [0, 1, 2]], n_columns=3
        )
        for sparsest in (True, False):
            assert order_is_valid(matrix, scan_order(matrix, sparsest))

    def test_exact_sparsest_order_is_sorted_by_density(self):
        matrix = BinaryMatrix(
            [[0, 1, 2], [0], [1, 2], []], n_columns=3
        )
        order = exact_sparsest_order(matrix)
        densities = [len(matrix.row(r)) for r in order]
        assert densities == sorted(densities)
        assert order_is_valid(matrix, order)

    def test_order_is_valid_rejects_duplicates(self):
        matrix = BinaryMatrix([[0], [1]], n_columns=2)
        assert not order_is_valid(matrix, [0, 0])

    def test_order_is_valid_rejects_missing_rows(self):
        matrix = BinaryMatrix([[0], [1]], n_columns=2)
        assert not order_is_valid(matrix, [0])

    def test_paper_example31_exact_order(self):
        """Example 3.1's sparsest order (r1,r3,r8,r2,r5,r4,r6,r9,r7)."""
        from tests.conftest import (
            EXAMPLE31_ROWS,
            EXAMPLE31_SPARSEST_ORDER,
        )

        matrix = BinaryMatrix(EXAMPLE31_ROWS, n_columns=6)
        assert exact_sparsest_order(matrix) == list(
            EXAMPLE31_SPARSEST_ORDER
        )

    @given(
        densities=st.lists(
            st.integers(min_value=0, max_value=40), max_size=60
        )
    )
    def test_scan_order_is_the_bucket_walk(self, densities):
        """Section 4.1's definition: walk the buckets from the sparsest
        up and visit each bucket's rows in their original order."""
        matrix = BinaryMatrix(
            [range(density) for density in densities], n_columns=40
        )
        walk = []
        for bucket in range(40 .bit_length()):
            walk.extend(
                row_id
                for row_id, density in enumerate(densities)
                if density and 2**bucket <= density < 2 ** (bucket + 1)
            )
        assert scan_order(matrix) == walk
        buckets = density_buckets(matrix)
        assert [row for bucket in buckets for row in bucket] == walk
        for index, bucket in enumerate(buckets):
            assert all(bucket_index(densities[row]) == index for row in bucket)
        assert scan_order(matrix, sparsest_first=False) == [
            row_id for row_id, density in enumerate(densities) if density
        ]
        assert exact_sparsest_order(matrix) == sorted(
            walk, key=lambda row_id: densities[row_id]
        )

    def test_bucketed_order_never_increases_bucket(self):
        matrix = BinaryMatrix(
            [[0, 1, 2, 3, 4], [0], [1, 2], [3], [0, 1]], n_columns=5
        )
        order = scan_order(matrix)
        buckets = [bucket_index(len(matrix.row(r))) for r in order]
        assert buckets == sorted(buckets)
