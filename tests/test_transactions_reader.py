"""The one reader of the ``#dmc-matrix`` text format.

``load_transactions`` parses numeric bodies with ``FileSource``'s block
parser; these properties hold it to the per-line loader it replaced
(copied below as the oracle), and pin the format's round trip and its
error messages.
"""

import re
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary
from repro.matrix.io import load_transactions, save_transactions
from repro.matrix.stream import FileSource
from repro.runtime.validation import RowValidationError, RowValidator

relaxed = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_HEADER = "#dmc-matrix"
_VOCAB_PREFIX = "#vocab "
_COLUMNS_PREFIX = "#columns "


def old_load_transactions(path: str, validator=None) -> BinaryMatrix:
    """The per-line loader ``load_transactions`` used to be."""
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


def _outcome(load, path, mode, max_row_length):
    """What ``load`` makes of ``path``: the matrix, its vocabulary and
    the validator's skip/clamp counts, or ``ValueError``."""
    validator = (
        None if mode is None else RowValidator(mode, max_row_length)
    )
    try:
        matrix = load(path, validator=validator)
    except ValueError:
        return ValueError
    counts = (
        None if validator is None
        else (validator.rows_skipped, validator.rows_clamped)
    )
    return matrix, matrix.n_columns, matrix.vocabulary, counts


_modes = st.sampled_from([None, "strict", "skip", "clamp"])
_max_row_length = st.sampled_from([None, 2])
_columns_line = st.integers(0, 70).map(lambda n: f"#columns {n}")

_ids = st.one_of(st.integers(0, 60), st.integers(0, 2**31 - 1))
_gap = st.sampled_from([" ", "  ", "\t", " \x0b "])
_garbage = st.sampled_from(["x", "1.5", "--", "0x1", "-3", "+4", "007"])
_numeric_line = st.one_of(
    st.builds(
        lambda ids, gap: gap.join(map(str, ids)),
        st.lists(_ids, max_size=6), _gap,
    ),
    st.lists(st.integers(0, 9), max_size=4).map(  # duplicates
        lambda ids: " ".join(map(str, ids + ids[::-1]))
    ),
    st.builds(
        lambda ids, token: " ".join([*map(str, ids), token]),
        st.lists(st.integers(0, 9), max_size=3), _garbage,
    ),
    st.sampled_from(["", "   "]),
    _columns_line,
)


@relaxed
@given(
    lines=st.lists(_numeric_line, max_size=25),
    mode=_modes,
    max_row_length=_max_row_length,
)
def test_numeric_files_load_as_the_per_line_loader_did(
    tmp_path, lines, mode, max_row_length
):
    path = tmp_path / "numeric.txt"
    path.write_text("\n".join([_HEADER, *lines]) + "\n", encoding="utf-8")
    assert _outcome(
        load_transactions, str(path), mode, max_row_length
    ) == _outcome(old_load_transactions, str(path), mode, max_row_length)


_known = ["a", "b", "bread", "#c", "x1", "7"]
_labelled_line = st.one_of(
    st.lists(st.sampled_from(_known), max_size=6).map(" ".join),
    st.just(""),
)


@relaxed
@given(
    columns=st.one_of(st.none(), st.integers(0, 8)),
    body=st.lists(_labelled_line, max_size=20),
    mode=_modes,
    max_row_length=_max_row_length,
)
def test_labelled_files_load_as_the_per_line_loader_did(
    tmp_path, columns, body, mode, max_row_length
):
    header = [_HEADER]
    if columns is not None:
        header.append(f"#columns {columns}")
    header.append(_VOCAB_PREFIX + " ".join(_known))
    path = tmp_path / "labelled.txt"
    path.write_text("\n".join(header + body) + "\n", encoding="utf-8")
    assert _outcome(
        load_transactions, str(path), mode, max_row_length
    ) == _outcome(old_load_transactions, str(path), mode, max_row_length)


_label = st.one_of(
    st.sampled_from(["#columns", "#vocab", "#", "#dmc-matrix", "5", "a"]),
    st.text(
        st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
    ).filter(lambda label: label.split() == [label]),
)


@relaxed
@given(rows=st.lists(st.lists(_label, max_size=5), max_size=12))
def test_labelled_round_trip(tmp_path, rows):
    matrix = BinaryMatrix.from_transactions(rows)
    path = str(tmp_path / "labelled.txt")
    save_transactions(matrix, path)
    loaded = load_transactions(path)
    assert loaded == matrix
    assert loaded.vocabulary == matrix.vocabulary


# ----------------------------------------------------------------------
# Labelled round trips the per-line loader got wrong.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows", [[["#columns", "5"], ["a"]], [["#vocab", "x"]]]
)
def test_rows_that_look_like_header_lines_round_trip(tmp_path, rows):
    matrix = BinaryMatrix.from_transactions(rows)
    path = str(tmp_path / "labelled.txt")
    save_transactions(matrix, path)
    loaded = load_transactions(path)
    assert loaded == matrix
    assert loaded.vocabulary == matrix.vocabulary


@pytest.mark.parametrize("label", ["", "a b", "tab\there", "nl\n"])
def test_writer_refuses_labels_it_cannot_represent(tmp_path, label):
    path = tmp_path / "labelled.txt"
    matrix = BinaryMatrix.from_transactions([[label, "c"]])
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        save_transactions(matrix, str(path))
    assert not path.exists()


# ----------------------------------------------------------------------
# A label missing from #vocab.
# ----------------------------------------------------------------------


@pytest.fixture
def unknown_label_path(tmp_path) -> str:
    path = tmp_path / "labelled.txt"
    path.write_text(
        "#dmc-matrix\n#columns 2\n#vocab ham eggs\nham eggs\n"
        "eggs spam ham\nham\n",
        encoding="utf-8",
    )
    return str(path)


def test_unknown_label_names_path_and_line(unknown_label_path):
    with pytest.raises(ValueError) as excinfo:
        load_transactions(unknown_label_path)
    assert f"{unknown_label_path}, line 5" in str(excinfo.value)
    assert "'spam'" in str(excinfo.value)


def test_cli_reports_an_unknown_label(unknown_label_path, capsys):
    assert main(["mine-imp", unknown_label_path, "--minconf", "0.5"]) == 1
    err = capsys.readouterr().err
    assert f"cannot read {unknown_label_path}" in err
    assert "line 5" in err


def test_validators_see_an_unknown_label_as_unparseable(unknown_label_path):
    with pytest.raises(RowValidationError) as excinfo:
        load_transactions(unknown_label_path, RowValidator("strict"))
    assert excinfo.value.line_number == 5
    assert "unparseable token 'spam'" in str(excinfo.value)

    skip = RowValidator("skip")
    assert load_transactions(unknown_label_path, skip) == BinaryMatrix(
        [(0, 1), (0,)], n_columns=2
    )
    assert skip.rows_skipped == 1

    clamp = RowValidator("clamp")
    assert load_transactions(unknown_label_path, clamp) == BinaryMatrix(
        [(0, 1), (0, 1), (0,)], n_columns=2
    )
    assert (clamp.rows_clamped, clamp.tokens_dropped) == (1, 1)


def test_a_numeric_looking_unknown_label_is_not_an_id(tmp_path):
    path = tmp_path / "labelled.txt"
    path.write_text("#dmc-matrix\n#vocab a b\na 1\n", encoding="utf-8")
    with pytest.raises(RowValidationError, match="line 3"):
        load_transactions(str(path), RowValidator("strict"))


# ----------------------------------------------------------------------
# A labelled path handed to the stream carrier.
# ----------------------------------------------------------------------


@pytest.fixture
def labelled_path(tmp_path) -> str:
    path = str(tmp_path / "labelled.txt")
    save_transactions(
        BinaryMatrix.from_transactions([["bread", "milk"], ["bread"]]), path
    )
    return path


def test_file_source_refuses_a_labelled_file(labelled_path):
    with pytest.raises(ValueError, match="load_transactions") as excinfo:
        FileSource(labelled_path)
    assert labelled_path in str(excinfo.value)
    with pytest.raises(ValueError, match="labelled"):
        repro.mine(labelled_path, minconf=0.5)


def test_cli_stream_reports_a_labelled_file(labelled_path, capsys):
    assert main(["mine-imp", labelled_path, "--minconf", "0.5",
                 "--stream"]) == 1
    err = capsys.readouterr().err
    assert f"cannot read {labelled_path}" in err
    assert "load_transactions" in err
    assert main(["mine-imp", labelled_path, "--minconf", "0.5"]) == 0


# ----------------------------------------------------------------------
# The grammar both readers now share.
# ----------------------------------------------------------------------


def test_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text(
        "#dmc-matrix\n# made by hand\n#columns 4\n0 1\n#note\n2 3\n",
        encoding="utf-8",
    )
    assert load_transactions(str(path)) == BinaryMatrix(
        [(0, 1), (2, 3)], n_columns=4
    )


@pytest.mark.parametrize("mode", [None, "skip", "clamp"])
def test_ids_past_the_limit_are_refused_with_the_line(tmp_path, mode):
    path = tmp_path / "big.txt"
    path.write_text(f"#dmc-matrix\n0 1\n{2**31}\n", encoding="utf-8")
    validator = None if mode is None else RowValidator(mode)
    with pytest.raises(ValueError, match="line 3"):
        load_transactions(str(path), validator)
