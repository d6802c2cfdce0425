"""The 0/1 matrix substrate (repro.matrix.binary_matrix)."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary


class TestConstruction:
    def test_rows_are_sorted_and_deduplicated(self):
        matrix = BinaryMatrix([[3, 1, 3]], n_columns=5)
        assert matrix.row(0) == (1, 3)

    def test_n_columns_inferred(self):
        matrix = BinaryMatrix([[0, 4], [2]])
        assert matrix.n_columns == 5

    def test_n_columns_too_small_rejected(self):
        with pytest.raises(ValueError):
            BinaryMatrix([[0, 4]], n_columns=3)

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError):
            BinaryMatrix([[-1]])

    def test_fractional_column_rejected(self):
        """A fractional id is refused, never truncated to a column."""
        with pytest.raises(ValueError, match="integers"):
            BinaryMatrix([[1.5, 2.7]])
        with pytest.raises(ValueError, match="integers"):
            BinaryMatrix([[0], [np.float64(0.5)]])
        assert BinaryMatrix([[2.0, 1]]).row(0) == (1, 2)

    def test_empty_matrix(self):
        matrix = BinaryMatrix([])
        assert matrix.n_rows == 0
        assert matrix.n_columns == 0
        assert matrix.nnz == 0

    def test_from_dense_round_trip(self):
        dense = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=np.uint8)
        matrix = BinaryMatrix.from_dense(dense)
        assert np.array_equal(matrix.to_dense(), dense)

    def test_from_dense_requires_2d(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_dense(np.zeros(4))

    def test_from_transactions_builds_vocabulary(self):
        matrix = BinaryMatrix.from_transactions(
            [["bread", "butter"], ["butter", "jam"]]
        )
        assert matrix.n_columns == 3
        assert matrix.vocabulary.label_of(0) == "bread"
        assert matrix.row(1) == (1, 2)

    def test_from_edges(self):
        matrix = BinaryMatrix.from_edges(
            [(0, 1), (2, 0), (2, 1)], n_rows=3, n_columns=2
        )
        assert matrix.row(2) == (0, 1)
        assert matrix.row(1) == ()

    def test_from_column_sets(self):
        matrix = BinaryMatrix.from_column_sets([{0, 2}, {1}], n_rows=3)
        assert matrix.column_set(0) == {0, 2}
        assert matrix.column_set(1) == {1}


class TestViews:
    def test_column_ones(self):
        matrix = BinaryMatrix([[0, 1], [1], [1, 2]], n_columns=4)
        assert matrix.column_ones().tolist() == [1, 3, 1, 0]

    def test_column_sets(self):
        matrix = BinaryMatrix([[0, 1], [1]], n_columns=2)
        assert matrix.column_set(1) == {0, 1}

    def test_row_densities(self):
        matrix = BinaryMatrix([[0, 1, 2], [], [3]], n_columns=4)
        assert matrix.row_densities().tolist() == [3, 0, 1]

    def test_iter_rows_with_order(self):
        matrix = BinaryMatrix([[0], [1], [2]], n_columns=3)
        visited = [row for _, row in matrix.iter_rows(order=[2, 0])]
        assert visited == [(2,), (0,)]

    def test_nnz(self):
        matrix = BinaryMatrix([[0, 1], [], [2]], n_columns=3)
        assert matrix.nnz == 3

    def test_len_is_rows(self):
        assert len(BinaryMatrix([[0], [1]], n_columns=2)) == 2


class TestTransforms:
    def test_transpose_involution(self):
        matrix = BinaryMatrix([[0, 2], [1], []], n_columns=3)
        assert matrix.transpose().transpose() == matrix

    def test_transpose_shape(self):
        matrix = BinaryMatrix([[0, 2], [1]], n_columns=4)
        transposed = matrix.transpose()
        assert transposed.n_rows == 4
        assert transposed.n_columns == 2
        assert transposed.row(2) == (0,)

    def test_select_rows(self):
        matrix = BinaryMatrix([[0], [1], [2]], n_columns=3)
        selected = matrix.select_rows([2, 0])
        assert selected.row(0) == (2,)
        assert selected.n_columns == 3

    def test_restrict_columns_keeps_ids(self):
        matrix = BinaryMatrix([[0, 1, 2]], n_columns=3)
        restricted = matrix.restrict_columns([0, 2])
        assert restricted.row(0) == (0, 2)
        assert restricted.n_columns == 3

    def test_compact_columns_remaps(self):
        matrix = BinaryMatrix([[0, 2], [2]], n_columns=4)
        compacted, kept = matrix.compact_columns()
        assert kept == [0, 2]
        assert compacted.n_columns == 2
        assert compacted.row(0) == (0, 1)

    def test_compact_columns_remaps_vocabulary(self):
        matrix = BinaryMatrix.from_transactions([["a", "b"], ["b"]])
        compacted = matrix.prune_columns_by_support(min_ones=2)
        assert compacted.vocabulary.labels() == ("b",)

    def test_prune_columns_by_support_bounds(self):
        matrix = BinaryMatrix([[0, 1], [1], [1, 2]], n_columns=3)
        pruned = matrix.prune_columns_by_support(min_ones=1, max_ones=2)
        assert pruned.n_columns == 2  # column 1 (3 ones) removed

    def test_drop_empty_rows(self):
        matrix = BinaryMatrix([[0], [], [1]], n_columns=2)
        assert matrix.drop_empty_rows().n_rows == 2

    def test_to_csr_matches_dense(self):
        matrix = BinaryMatrix([[0, 2], [1]], n_columns=3)
        assert np.array_equal(
            matrix.to_csr().toarray(), matrix.to_dense()
        )

    def test_equality(self):
        assert BinaryMatrix([[0]], n_columns=2) == BinaryMatrix(
            [[0]], n_columns=2
        )
        assert BinaryMatrix([[0]], n_columns=2) != BinaryMatrix(
            [[0]], n_columns=3
        )

    def test_repr_mentions_shape(self):
        assert "n_rows=1" in repr(BinaryMatrix([[0]], n_columns=1))


class TestVocabulary:
    def test_add_is_idempotent(self):
        vocabulary = Vocabulary()
        assert vocabulary.add("x") == vocabulary.add("x") == 0

    def test_id_of_unknown_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().id_of("missing")

    def test_round_trip(self):
        vocabulary = Vocabulary(["a", "b"])
        assert vocabulary.label_of(vocabulary.id_of("b")) == "b"

    def test_len_contains_iter(self):
        vocabulary = Vocabulary(["a", "b"])
        assert len(vocabulary) == 2
        assert "a" in vocabulary
        assert list(vocabulary) == ["a", "b"]

    def test_equality(self):
        assert Vocabulary(["a"]) == Vocabulary(["a"])
        assert Vocabulary(["a"]) != Vocabulary(["b"])


def _reference_matches(matrix, rows, n_columns):
    """Check ``matrix`` against naive sorted-tuple rows ``rows``."""
    assert matrix.n_rows == len(rows) and matrix.n_columns == n_columns
    assert not matrix.offsets.flags.writeable
    assert not matrix.cols.flags.writeable
    assert [matrix.row(i) for i in range(len(rows))] == rows
    assert list(matrix.iter_rows()) == list(enumerate(rows))
    assert matrix.nnz == sum(map(len, rows))
    assert matrix.row_densities().tolist() == list(map(len, rows))
    assert matrix.column_ones().tolist() == [
        sum(column in row for row in rows) for column in range(n_columns)
    ]
    assert matrix.column_sets() == [
        frozenset(i for i, row in enumerate(rows) if column in row)
        for column in range(n_columns)
    ]
    dense = np.zeros((len(rows), n_columns), dtype=np.uint8)
    for i, row in enumerate(rows):
        dense[i, list(row)] = 1
    assert np.array_equal(matrix.to_dense(), dense)
    assert np.array_equal(matrix.to_csr().toarray(), dense)
    assert matrix == BinaryMatrix(rows, n_columns=n_columns)


@st.composite
def _raw_matrices(draw):
    """Unsorted rows with repeated ids, empty rows, sometimes numpy
    ints, and ``n_columns`` sometimes above the largest id."""
    rows = draw(
        st.lists(st.lists(st.integers(0, 9), max_size=7), max_size=10)
    )
    if draw(st.booleans()):
        rows = [np.array(row, dtype=np.int32) for row in rows]
    largest = max((int(c) for row in rows for c in row), default=-1)
    n_columns = largest + 1 + draw(st.integers(0, 3))
    return rows, n_columns


class TestAgainstTupleReference:
    @given(raw=_raw_matrices(), data=st.data())
    def test_csr_matrix_matches_tuple_rows(self, raw, data):
        raw_rows, n_columns = raw
        rows = [tuple(sorted(set(int(c) for c in row))) for row in raw_rows]
        matrix = BinaryMatrix(raw_rows, n_columns=n_columns)
        _reference_matches(matrix, rows, n_columns)
        _reference_matches(pickle.loads(pickle.dumps(matrix)), rows, n_columns)
        if n_columns:
            assert matrix != BinaryMatrix(rows, n_columns=n_columns + 1)

        keep = data.draw(st.sets(st.integers(0, n_columns + 2)))
        _reference_matches(
            matrix.restrict_columns(keep),
            [tuple(c for c in row if c in keep) for row in rows],
            n_columns,
        )

        picked = data.draw(
            st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=12)
            if rows else st.just([])
        )
        _reference_matches(
            matrix.select_rows(picked), [rows[i] for i in picked], n_columns
        )

        _reference_matches(
            matrix.transpose(),
            [
                tuple(i for i, row in enumerate(rows) if column in row)
                for column in range(n_columns)
            ],
            len(rows),
        )

        kept = sorted(data.draw(st.sets(st.integers(0, n_columns + 1))))
        compacted, old_ids = matrix.compact_columns(kept)
        assert old_ids == kept
        _reference_matches(
            compacted,
            [tuple(kept.index(c) for c in row if c in kept) for row in rows],
            len(kept),
        )
        compacted, old_ids = matrix.compact_columns()
        used = sorted({c for row in rows for c in row})
        assert old_ids == used
        _reference_matches(
            compacted,
            [tuple(used.index(c) for c in row) for row in rows],
            len(used),
        )

        _reference_matches(
            matrix.drop_empty_rows(), [row for row in rows if row], n_columns
        )
