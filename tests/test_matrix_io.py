"""Persistence round trips (repro.matrix.io)."""

import pytest

from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import (
    load_npz,
    load_transactions,
    save_npz,
    save_transactions,
)


@pytest.fixture
def labelled_matrix():
    return BinaryMatrix.from_transactions(
        [["bread", "butter"], ["butter", "jam"], []]
    )


@pytest.fixture
def plain_matrix():
    return BinaryMatrix([[0, 3], [], [1]], n_columns=5)


class TestTransactionsFormat:
    def test_round_trip_with_vocabulary(self, tmp_path, labelled_matrix):
        path = str(tmp_path / "data.txt")
        save_transactions(labelled_matrix, path)
        loaded = load_transactions(path)
        assert loaded == labelled_matrix
        assert loaded.vocabulary == labelled_matrix.vocabulary

    def test_round_trip_without_vocabulary(self, tmp_path, plain_matrix):
        path = str(tmp_path / "data.txt")
        save_transactions(plain_matrix, path)
        assert load_transactions(path) == plain_matrix

    def test_empty_rows_preserved(self, tmp_path):
        matrix = BinaryMatrix([[], [0], []], n_columns=1)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        assert load_transactions(path).n_rows == 3

    def test_header_is_validated(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            load_transactions(str(path))

    def test_zero_column_count_preserved(self, tmp_path):
        matrix = BinaryMatrix([[0]], n_columns=7)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        assert load_transactions(path).n_columns == 7


class TestNpzFormat:
    def test_round_trip_with_vocabulary(self, tmp_path, labelled_matrix):
        path = str(tmp_path / "data.npz")
        save_npz(labelled_matrix, path)
        loaded = load_npz(path)
        assert loaded == labelled_matrix
        assert loaded.vocabulary == labelled_matrix.vocabulary

    def test_round_trip_without_vocabulary(self, tmp_path, plain_matrix):
        path = str(tmp_path / "data.npz")
        save_npz(plain_matrix, path)
        loaded = load_npz(path)
        assert loaded == plain_matrix
        assert loaded.vocabulary is None

    def test_extension_added_on_load(self, tmp_path, plain_matrix):
        base = str(tmp_path / "data")
        save_npz(plain_matrix, base + ".npz")
        assert load_npz(base) == plain_matrix

    def test_round_trip_with_empty_rows(self, tmp_path):
        matrix = BinaryMatrix([[], [2, 0], [], [], [1], []], n_columns=4)
        path = str(tmp_path / "gaps.npz")
        save_npz(matrix, path)
        loaded = load_npz(path)
        assert loaded == matrix
        assert [row for _, row in loaded.iter_rows()] == [
            (), (0, 2), (), (), (1,), ()
        ]
        assert loaded.row_densities().tolist() == [0, 2, 0, 0, 1, 0]
        assert not loaded.offsets.flags.writeable
        assert not loaded.cols.flags.writeable

    def test_empty_matrix(self, tmp_path):
        matrix = BinaryMatrix([], n_columns=0)
        path = str(tmp_path / "empty.npz")
        save_npz(matrix, path)
        assert load_npz(path) == matrix
