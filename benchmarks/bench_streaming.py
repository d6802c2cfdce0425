"""Streaming two-pass mining vs the in-memory pipeline.

Not a paper figure — it prices the paper's "only two passes through
the data" discipline: how much the bucket-spill files and line parsing
cost relative to mining an already-loaded matrix, and that the
streamed result is identical.

``test_streaming_load_transactions`` reads the same file with the
in-memory reader (``FileSource``'s block parser into one matrix) and
mines it, beside ``test_streaming_file_source``'s two passes over it.

The ``test_streaming_checkpoint_*`` pair prices the durable-storage
write discipline specifically: the same checkpointed run with full
fsync discipline (``LocalStorage(durable=True)``, the default) vs
fsyncs turned off.  ``benchmarks.check_storage_overhead`` gates on the
difference staying under 5%.
"""

import os

import pytest

from repro.core.dmc_imp import PruningOptions, mine_matrix
from repro.matrix.io import load_transactions, save_transactions
from repro.matrix.stream import (
    FileSource,
    MatrixSource,
    stream_implication_rules,
)
from repro.runtime.storage import LocalStorage

THRESHOLD = 0.85


@pytest.fixture(scope="module")
def on_disk(tmp_path_factory, datasets):
    matrix = datasets("Wlog")
    # Streaming mode reads numeric ids; drop the vocabulary view.
    path = str(tmp_path_factory.mktemp("stream") / "wlog.txt")
    labelled = matrix.vocabulary
    matrix.vocabulary = None
    save_transactions(matrix, path)
    matrix.vocabulary = labelled
    return matrix, path


def _in_memory(matrix, threshold):
    """The in-memory pipeline on the stream's scan and options (the
    vector scan, no bitmap switch), so the difference is the spill."""
    return mine_matrix(
        "implication", matrix, threshold, PruningOptions(bitmap=None),
        scan="vector",
    )


def test_streaming_in_memory_pipeline(benchmark, on_disk):
    matrix, _ = on_disk
    rules = benchmark.pedantic(
        _in_memory, args=(matrix, THRESHOLD), rounds=3, iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_streaming_matrix_source(benchmark, on_disk):
    matrix, _ = on_disk
    rules = benchmark.pedantic(
        stream_implication_rules,
        args=(MatrixSource(matrix), THRESHOLD),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_streaming_file_source(benchmark, on_disk):
    _, path = on_disk
    rules = benchmark.pedantic(
        stream_implication_rules,
        args=(FileSource(path), THRESHOLD),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)
    benchmark.extra_info["file_kb"] = os.path.getsize(path) // 1024


def _loaded_in_memory(path, threshold):
    """Read the file with the in-memory reader, then mine it on the
    stream's scan and options."""
    return _in_memory(load_transactions(path), threshold)


def test_streaming_load_transactions(benchmark, on_disk):
    _, path = on_disk
    rules = benchmark.pedantic(
        _loaded_in_memory, args=(path, THRESHOLD), rounds=3, iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)
    benchmark.extra_info["file_kb"] = os.path.getsize(path) // 1024


def _checkpointed_stream(path, checkpoint_dir, storage):
    # A completed run retires its checkpoint, so every round pays the
    # full pass-1 spill + checkpoint-save cost — which is the cost
    # under test.
    return stream_implication_rules(
        FileSource(path),
        THRESHOLD,
        checkpoint_dir=checkpoint_dir,
        storage=storage,
    )


def test_streaming_checkpoint_durable(benchmark, on_disk, tmp_path):
    _, path = on_disk
    rules = benchmark.pedantic(
        _checkpointed_stream,
        args=(path, str(tmp_path / "ckpt"), LocalStorage(durable=True)),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_streaming_checkpoint_fsync_off(benchmark, on_disk, tmp_path):
    _, path = on_disk
    rules = benchmark.pedantic(
        _checkpointed_stream,
        args=(path, str(tmp_path / "ckpt"), LocalStorage(durable=False)),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["rules"] = len(rules)


def test_streaming_results_identical(on_disk):
    matrix, path = on_disk
    in_memory = _in_memory(matrix, THRESHOLD)
    streamed = stream_implication_rules(FileSource(path), THRESHOLD)
    assert streamed.pairs() == in_memory.pairs()


if __name__ == "__main__":
    import sys

    from benchmarks.jsonbench import main

    sys.exit(main(__file__, sys.argv[1:]))
