"""Persistence for :class:`~repro.matrix.binary_matrix.BinaryMatrix`:
the ``#dmc-matrix`` transactions text format and a compact ``.npz``
format storing the matrix's CSR arrays.

The text format has one grammar, spelled here and read by
:func:`load_transactions` and :class:`repro.matrix.stream.FileSource`:

- the first line is ``#dmc-matrix`` (``FileSource`` does not require it);
- other lines starting with ``#`` are comments, except ``#columns N``
  (the column count; the last one wins) and ``#vocab``;
- a ``#vocab`` line among the leading ``#`` lines lists the labels of
  columns ``0, 1, ...``; every line after it is a row of labels, so a
  label may start with ``#``.  Labelled files load in memory only;
- every other line is a row of column ids in ``[0, 2**31)``, split as
  ``str.split`` does, sorted and deduplicated (an empty line is an
  empty row).  Only ``FileSource``'s block parser reads these rows.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary

HEADER = "#dmc-matrix"
COLUMNS_PREFIX = "#columns "
VOCAB_PREFIX = "#vocab "


def columns_of(line: str, columns: Optional[int]) -> Optional[int]:
    """The ``N`` of a ``#columns N`` line, else ``columns``."""
    if line.startswith(COLUMNS_PREFIX):
        return int(line[len(COLUMNS_PREFIX):])
    return columns


def read_header(
    numbered: Iterator[Tuple[int, str]]
) -> Tuple[Optional[int], Optional[Vocabulary]]:
    """``(columns, vocabulary)`` of the leading ``#`` lines of
    ``numbered``, an open file's ``(line_number, line)`` pairs; reading
    stops at the first row, or just after the ``#vocab`` line."""
    columns: Optional[int] = None
    for _, line in numbered:
        if not line.startswith("#"):
            break
        if line.startswith(VOCAB_PREFIX):
            return columns, Vocabulary(line[len(VOCAB_PREFIX):].split())
        columns = columns_of(line, columns)
    return columns, None


def save_transactions(matrix: BinaryMatrix, path: str) -> None:
    """Write ``matrix`` in the transactions text format, as labels if it
    has a vocabulary; a label the format cannot hold (empty, or with
    whitespace) raises ``ValueError``."""
    vocabulary = matrix.vocabulary
    for label in vocabulary or ():
        if label.split() != [label]:
            raise ValueError(
                f"cannot write label {label!r}: labels must be non-empty "
                "and contain no whitespace"
            )
    name = str if vocabulary is None else vocabulary.label_of
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{HEADER}\n{COLUMNS_PREFIX}{matrix.n_columns}\n")
        if vocabulary is not None:
            handle.write(f"{VOCAB_PREFIX}{' '.join(vocabulary)}\n")
        for _, row in matrix.iter_rows():
            handle.write(" ".join(map(name, row)) + "\n")


def load_transactions(path: str, validator=None) -> BinaryMatrix:
    """Read a matrix written by :func:`save_transactions`.

    ``validator`` (a :class:`repro.runtime.validation.RowValidator`)
    decides what happens to malformed rows: ``strict`` raises a
    diagnostic naming the line number, ``skip`` drops the row (counted
    on the validator), ``clamp`` repairs it; a blank line never
    reaches it.  Without one, a garbage token, an id outside ``[0,
    2**31)`` or a label missing from ``#vocab`` raises a
    ``ValueError`` naming the path and line.  In a labelled file the
    validator sees the resolved ids, and an unknown label as an
    unparseable token.
    """
    with open(path, "r", encoding="utf-8") as handle:
        numbered = enumerate(handle, start=1)
        if next(numbered, (1, ""))[1].rstrip("\n") != HEADER:
            raise ValueError(f"{path} is not a dmc-matrix transactions file")
        columns, vocabulary = read_header(numbered)
        if vocabulary is not None:
            rows = _labelled_rows(numbered, vocabulary, path, validator)
            return BinaryMatrix(rows, n_columns=columns, vocabulary=vocabulary)
    from repro.matrix.stream import FileSource, source_matrix

    return source_matrix(FileSource(path, validator))


class _UnknownLabel(str):
    """A label missing from ``#vocab``: a token no validator parses."""

    def __int__(self) -> int:
        raise ValueError(f"label {str(self)!r} is not in #vocab")


def _labelled_rows(numbered, vocabulary: Vocabulary, path: str, validator):
    """Every row of a labelled body, each label looked up in
    ``vocabulary``."""
    ids = {label: column for column, label in enumerate(vocabulary)}
    for number, line in numbered:
        labels = line.split()
        if validator is not None and labels:
            row = validator.validate_row(
                [ids.get(label, _UnknownLabel(label)) for label in labels],
                line_number=number, source=path,
            )
            if row is not None:
                yield row
            continue
        try:
            row = [ids[label] for label in labels]
        except KeyError as error:
            raise ValueError(
                f"{path}, line {number}: label {error.args[0]!r} is not in "
                "#vocab"
            ) from None
        yield row


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
