"""Persistence for :class:`~repro.matrix.binary_matrix.BinaryMatrix`.

Two formats are supported:

- a human-readable transactions text format — one row per line, entries
  separated by spaces; integer entries are column ids, anything else is
  treated as a label and resolved through a vocabulary header; and
- a compact ``.npz`` format storing the matrix's CSR arrays.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary

_HEADER = "#dmc-matrix"
_VOCAB_PREFIX = "#vocab "
_COLUMNS_PREFIX = "#columns "


def save_transactions(matrix: BinaryMatrix, path: str) -> None:
    """Write ``matrix`` in the transactions text format.

    If the matrix has a vocabulary, rows are written using labels;
    otherwise, using numeric column ids.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_HEADER}\n")
        handle.write(f"{_COLUMNS_PREFIX}{matrix.n_columns}\n")
        if matrix.vocabulary is not None:
            labels = " ".join(matrix.vocabulary.labels())
            handle.write(f"{_VOCAB_PREFIX}{labels}\n")
            for _, row in matrix.iter_rows():
                handle.write(
                    " ".join(matrix.vocabulary.label_of(c) for c in row)
                )
                handle.write("\n")
        else:
            for _, row in matrix.iter_rows():
                handle.write(" ".join(str(c) for c in row))
                handle.write("\n")


def load_transactions(path: str, validator=None) -> BinaryMatrix:
    """Read a matrix written by :func:`save_transactions`.

    ``validator`` (a :class:`repro.runtime.validation.RowValidator`)
    decides what happens to malformed rows: ``strict`` raises a
    diagnostic naming the line number, ``skip`` drops the row (counted
    on the validator), ``clamp`` repairs it.  Without one, a garbage
    token raises a plain ``ValueError``.  For labelled files the
    validator applies *after* label resolution (labels themselves are
    free-form).
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        if first.rstrip("\n") != _HEADER:
            raise ValueError(f"{path} is not a dmc-matrix transactions file")
        n_columns: Optional[int] = None
        vocabulary: Optional[Vocabulary] = None
        rows = []
        for line_number, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if line.startswith(_COLUMNS_PREFIX):
                n_columns = int(line[len(_COLUMNS_PREFIX) :])
                continue
            if line.startswith(_VOCAB_PREFIX):
                vocabulary = Vocabulary(line[len(_VOCAB_PREFIX) :].split())
                continue
            tokens = line.split()
            if vocabulary is not None:
                row = [vocabulary.id_of(token) for token in tokens]
                if validator is not None:
                    checked = validator.validate_row(
                        row, line_number=line_number, source=path
                    )
                    if checked is None:
                        continue
                    row = list(checked)
                rows.append(row)
            elif validator is not None:
                checked = validator.validate_tokens(
                    tokens, line_number=line_number, source=path
                )
                if checked is not None:
                    rows.append(list(checked))
            else:
                rows.append([int(token) for token in tokens])
        return BinaryMatrix(rows, n_columns=n_columns, vocabulary=vocabulary)


def save_npz(matrix: BinaryMatrix, path: str) -> None:
    """Write ``matrix`` to a compressed ``.npz`` file."""
    arrays = {
        "indptr": matrix.offsets,
        "indices": matrix.cols,
        "n_columns": np.array([matrix.n_columns], dtype=np.int64),
    }
    if matrix.vocabulary is not None:
        arrays["labels"] = np.array(matrix.vocabulary.labels(), dtype=object)
    np.savez_compressed(path, **arrays)


def load_npz(path: str) -> BinaryMatrix:
    """Read a matrix written by :func:`save_npz`."""
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    with np.load(path, allow_pickle=True) as data:
        vocabulary = None
        if "labels" in data:
            vocabulary = Vocabulary(str(label) for label in data["labels"])
        return BinaryMatrix._from_csr(
            data["indptr"].astype(np.int64),
            data["indices"].astype(np.int64),
            int(data["n_columns"][0]),
            vocabulary,
        )
