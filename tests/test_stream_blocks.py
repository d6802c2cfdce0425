"""The stream carrier's block data path: parse, spill and replay.

Pass 1 reads a source as CSR blocks (a transactions file is parsed a
chunk of characters at a time with numpy) and spills each block as
binary bucket records; pass 2 replays the records in blocks.  These
tests pin that path to the per-row one it replaced: the parse equals a
per-line parse, the replay order equals the sparsest-first row order,
memory stays bounded, the disk preflight stays an upper bound, and bad ids fail before anything
is spilled.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.dmc_imp import find_implication_rules
from repro.core.stats import ScanStats
from repro.matrix import stream
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import load_transactions, save_transactions
from repro.matrix.reorder import bucket_index
from repro.matrix.stream import (
    BucketSpill,
    FileSource,
    IterableSource,
    MatrixSource,
    _first_scan,
    _Replay,
    stream_implication_rules,
)
from repro.runtime.checkpoint import CheckpointStore, source_fingerprint
from repro.runtime.guards import estimate_spill_bytes
from repro.runtime.validation import RowValidator

from tests.conftest import replayed_rows
from tests.test_runtime import CountingFileSource, DEMO_ROWS

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _per_line_rows(path):
    """The per-line parse the block parser replaced: ``(rows,
    n_columns)`` after one pass."""
    columns = FileSource(path).n_columns()
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#columns "):
                columns = int(line[len("#columns "):])
                continue
            if line.startswith("#"):
                continue
            rows.append(tuple(sorted(set(int(t) for t in line.split()))))
    return rows, columns


# ----------------------------------------------------------------------
# The block parser equals the per-line parse.
# ----------------------------------------------------------------------

_ids = st.one_of(
    st.integers(0, 9), st.integers(0, 99_999), st.integers(0, 2**31 - 1)
)
_gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x85", "　"])
_data_line = st.builds(
    lambda ids, gaps, lead, trail: lead + "".join(
        str(value) + gap for value, gap in zip(ids, gaps)
    ).rstrip() + trail,
    st.lists(_ids, max_size=8),
    st.lists(_gaps, min_size=8, max_size=8),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", " ", "  \t"]),
)
_line = st.one_of(
    _data_line,
    _data_line.map(lambda line: line + " " + line),  # duplicates
    st.just(""),
    st.sampled_from(["# comment", "#", "#x 1 2"]),
    st.integers(0, 50).map(lambda n: f"#columns {n}"),
)


@relaxed
@given(
    lines=st.lists(_line, max_size=30),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
    chunk=st.sampled_from([1, 7, 64, stream.PARSE_CHUNK_CHARS]),
)
def test_block_parse_equals_per_line_parse(
    tmp_path, monkeypatch, lines, newline, final_newline, chunk
):
    text = newline.join(lines) + (newline if final_newline else "")
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(stream, "PARSE_CHUNK_CHARS", chunk)
    want, want_columns = _per_line_rows(str(path))
    source = FileSource(str(path))
    assert list(source.iter_rows()) == want
    assert source.n_columns() == want_columns


@relaxed
@given(
    lines=st.lists(_data_line, min_size=1, max_size=10),
    at=st.integers(0, 9),
    garbage=st.sampled_from(["x", "1.5", "--", "0x1", "1e3", "½", "١٢x"]),
    chunk=st.sampled_from([1, 7, stream.PARSE_CHUNK_CHARS]),
)
def test_non_numeric_token_raises(
    tmp_path, monkeypatch, lines, at, garbage, chunk
):
    lines = list(lines)
    at %= len(lines)
    lines[at] = f"{lines[at]} {garbage}"
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(stream, "PARSE_CHUNK_CHARS", chunk)
    with pytest.raises(ValueError):
        _per_line_rows(str(path))
    with pytest.raises(ValueError):
        list(FileSource(str(path)).iter_rows())


def test_space_table_is_str_isspace():
    spaces = [code for code in range(0x110000) if chr(code).isspace()]
    assert np.flatnonzero(stream._SPACE).tolist() == spaces
    assert spaces[-1] < len(stream._SPACE) - 1


def test_tokens_parse_as_int_does(tmp_path):
    path = tmp_path / "odd.txt"
    path.write_text(
        "+3 007 1_0 \u0663\n0000000000000000000042\n", encoding="utf-8"
    )
    want = [(3, 7, 10), (42,)]
    assert _per_line_rows(str(path))[0] == want
    assert list(FileSource(str(path)).iter_rows()) == want


# ----------------------------------------------------------------------
# Spill round trip.
# ----------------------------------------------------------------------


def _random_rows(seed, n_rows=300):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        length = int(rng.choice([0, 1, 2, 3, 5, 9, 17, 40]))
        rows.append(tuple(sorted(set(rng.integers(0, 60, length).tolist()))))
    return rows


def _blocks(rows, size):
    for lo in range(0, len(rows), size):
        chunk = rows[lo:lo + size]
        yield (
            np.array([len(row) for row in chunk], dtype=np.int64),
            np.array([c for row in chunk for c in row], dtype=np.int64),
        )


@pytest.mark.parametrize("write_rows", [1, 7, 1024])
@pytest.mark.parametrize("take_rows", [1, 7, 1024])
@pytest.mark.parametrize("masked", [False, True])
def test_spill_replays_sparsest_first_in_file_order(
    tmp_path, write_rows, take_rows, masked
):
    rows = _random_rows(write_rows + take_rows)
    kept = np.arange(60) % 3 != 0 if masked else None
    # The per-row spill's order: non-empty rows, stable-sorted by bucket.
    want = sorted(
        (row for row in rows if row), key=lambda row: bucket_index(len(row))
    )
    if masked:
        want = [tuple(c for c in row if kept[c]) for row in want]
    with BucketSpill(directory=str(tmp_path)) as spill:
        for lengths, cols in _blocks(rows, write_rows):
            spill.add_block(lengths, cols)
        assert spill.rows_spilled == len(want)
        replay = _Replay(spill, kept, ScanStats())
        got = []
        while True:
            size, lengths, cols = replay.take(take_rows)
            if not size:
                break
            assert size == len(lengths) <= take_rows
            ends = np.cumsum(lengths)
            got += [
                tuple(cols[end - length:end].tolist())
                for length, end in zip(lengths, ends)
            ]
        assert got == want
        if not masked:
            assert replayed_rows(spill) == want


def test_first_scan_counts_and_spills_blocks(tmp_path):
    matrix = BinaryMatrix(DEMO_ROWS, n_columns=10)
    with BucketSpill(directory=str(tmp_path)) as spill:
        ones = _first_scan(MatrixSource(matrix), spill)
        assert ones.tolist() == matrix.column_ones().tolist()
        assert sorted(replayed_rows(spill)) == sorted(
            row for row in DEMO_ROWS if row
        )


def test_ones_grow_past_the_declared_universe(tmp_path):
    source = IterableSource([(0, 1), (7,)], columns=3)
    with BucketSpill(directory=str(tmp_path)) as spill:
        assert _first_scan(source, spill).tolist() == [1, 1, 0, 0, 0, 0, 0, 1]


# ----------------------------------------------------------------------
# Checkpoints from before the block format are stale.
# ----------------------------------------------------------------------


def test_version_1_checkpoint_is_stale_and_rescanned(tmp_path):
    matrix = BinaryMatrix(DEMO_ROWS, n_columns=8)
    path = str(tmp_path / "demo.txt")
    save_transactions(matrix, path)
    baseline = stream_implication_rules(FileSource(path), 0.8)
    # A text-bucket checkpoint as the per-row carrier wrote it.
    directory = str(tmp_path / "ckpt")
    store = CheckpointStore(directory)
    buckets = store.prepare_buckets()
    bucket = os.path.join(buckets, "bucket-00.txt")
    with open(bucket, "w", encoding="utf-8") as handle:
        handle.write("0 1\n")
    source = CountingFileSource(path)
    manifest = {
        "version": 1,
        "fingerprint": source_fingerprint(source),
        "params": {"kind": "implication", "threshold": "4/5"},
        "ones": [1, 1],
        "rows_spilled": 1,
        "buckets": [{
            "name": "bucket-00.txt", "rows": 1,
            "size_bytes": os.path.getsize(bucket),
            "sha256": store.storage.sha256_file(bucket),
        }],
    }
    with open(store.manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    assert store.has_checkpoint()
    assert stream_implication_rules(
        source, 0.8, checkpoint_dir=directory
    ) == baseline
    assert source.iterations == 1  # rescanned, not resumed
    assert not store.has_checkpoint()


# ----------------------------------------------------------------------
# Pass 1's memory is bounded by the chunk, not the file.
# ----------------------------------------------------------------------


def _write_rows(path, n_rows, seed):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("#dmc-matrix\n#columns 1000\n")
        for _ in range(n_rows):
            row = rng.integers(0, 1000, int(rng.integers(1, 20)))
            handle.write(" ".join(map(str, row.tolist())) + "\n")


def _pass1_peak(path, spill_dir):
    with BucketSpill(directory=spill_dir) as spill:
        tracemalloc.start()
        try:
            _first_scan(FileSource(path), spill)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_pass1_memory_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(stream, "PARSE_CHUNK_CHARS", 1 << 14)
    small, large = str(tmp_path / "small.txt"), str(tmp_path / "large.txt")
    _write_rows(small, 4_000, seed=1)
    _write_rows(large, 32_000, seed=2)
    assert os.path.getsize(large) > 7 * os.path.getsize(small)
    _pass1_peak(small, str(tmp_path))  # warm numpy's first-call state
    assert _pass1_peak(large, str(tmp_path)) <= 1.5 * _pass1_peak(
        small, str(tmp_path)
    )


# ----------------------------------------------------------------------
# The disk preflight bounds the binary buckets.
# ----------------------------------------------------------------------


def _spilled_bytes(source, tmp_path):
    with BucketSpill(directory=str(tmp_path)) as spill:
        _first_scan(source, spill)
        spill.finish()
        return sum(
            os.path.getsize(path) for _, path, _ in spill.bucket_files()
        )


@pytest.mark.parametrize("digits", [1, 6])
@pytest.mark.parametrize("row_ids", [1, 5])
def test_estimate_bounds_the_bucket_bytes(tmp_path, digits, row_ids):
    rng = np.random.default_rng(digits * 10 + row_ids)
    lo, hi = (0, 10) if digits == 1 else (100_000, 1_000_000)
    path = str(tmp_path / "ids.txt")
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(3000):
            ids = rng.choice(np.arange(lo, hi), row_ids, replace=False)
            handle.write(" ".join(map(str, ids.tolist())) + "\n")
    source = FileSource(path)
    spilled = _spilled_bytes(source, tmp_path)
    assert spilled <= estimate_spill_bytes(source=source)
    matrix = BinaryMatrix(list(source.iter_rows()))
    assert _spilled_bytes(MatrixSource(matrix), tmp_path) <= (
        estimate_spill_bytes(matrix=matrix)
    )
    if digits == 1 and row_ids == 1:
        # One-digit ids are the worst case: the bound is nearly tight.
        assert spilled > 0.9 * 4 * os.path.getsize(path)


# ----------------------------------------------------------------------
# Ids outside [0, 2**31) fail pass 1 before anything is spilled.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad, reason",
    [(-1, "non-negative"), (2**31, "below 2\\*\\*31"), (2**70, "below")],
)
def test_file_source_rejects_bad_ids_before_spilling(tmp_path, bad, reason):
    path = tmp_path / "tx.txt"
    path.write_text(f"0 1\n1 {bad}\n0 1\n", encoding="utf-8")
    checkpoint = str(tmp_path / "ckpt")
    with pytest.raises(ValueError, match=f"tx.txt, line 2: .*{reason}"):
        repro.mine(
            str(path), engine="stream", minconf=0.5,
            checkpoint_dir=checkpoint,
        )
    store = CheckpointStore(checkpoint)
    assert not store.has_checkpoint()
    assert not os.listdir(store.buckets_directory)


@pytest.mark.parametrize(
    "bad, reason",
    [(-1, "non-negative"), (2**31, "below 2\\*\\*31"), (2**70, "below")],
)
def test_iterable_source_rejects_bad_ids_before_spilling(
    tmp_path, bad, reason
):
    source = IterableSource([(0, 1), (1, bad), (0, 1)])
    checkpoint = str(tmp_path / "ckpt")
    match = f"iterable source, line 2: .*{reason}"
    with pytest.raises(ValueError, match=match):
        repro.mine(
            source, engine="stream", minconf=0.5, checkpoint_dir=checkpoint,
        )
    store = CheckpointStore(checkpoint)
    assert not store.has_checkpoint()
    assert not os.listdir(store.buckets_directory)


def test_validated_file_rejects_ids_past_the_limit(tmp_path):
    path = tmp_path / "tx.txt"
    path.write_text(f"0 1\n{2**31}\n", encoding="utf-8")
    source = FileSource(str(path), validator=RowValidator("skip"))
    with pytest.raises(ValueError, match="line 2"):
        stream_implication_rules(source, 0.5)


def test_negative_ids_match_the_in_memory_error(tmp_path):
    path = tmp_path / "tx.txt"
    path.write_text("#dmc-matrix\n0 1\n1 -1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="column ids must be non-negative"):
        repro.mine(str(path), engine="stream", minconf=0.5)
    with pytest.raises(ValueError, match="column ids must be non-negative"):
        load_transactions(str(path))


def test_streamed_blocks_mine_the_in_memory_rules(tmp_path, monkeypatch):
    monkeypatch.setattr(stream, "PARSE_CHUNK_CHARS", 64)
    monkeypatch.setattr(stream, "PACK_ROWS", 3)
    matrix = BinaryMatrix(_random_rows(5, n_rows=200), n_columns=60)
    path = str(tmp_path / "data.txt")
    save_transactions(matrix, path)
    want = find_implication_rules(matrix, 0.6)
    for source in (
        FileSource(path),
        FileSource(path, validator=RowValidator()),
        IterableSource([row for _, row in matrix.iter_rows()]),
        MatrixSource(matrix),
    ):
        assert stream_implication_rules(source, 0.6) == want
