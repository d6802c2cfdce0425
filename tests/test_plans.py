"""Every execution plan ``resolve_engine()`` can produce, end to end.

One table enumerates each ``(engine, input, memory_budget)`` request
``repro.mine()`` can receive, plus the ``n_workers=2`` requests.  Each
entry names the engine the run reports, or ``None`` where the request
is rejected.  Accepted plans must mine brute force's rules byte for
byte, for both tasks, at an ordinary threshold and at one whose raw
terms would overflow the vector engine's int64 products.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.api import ENGINES, mine
from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.dmc_imp import PruningOptions
from repro.core.policies import SimilarityPolicy
from repro.core.vector import vector_scan
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.stream import MatrixSource
from repro.mining.export import rules_to_json
from repro.observe import RunObserver
from repro.observe.journal import summarize_journal
from repro.observe.live import LiveRunStatus
from tests.conftest import random_binary_matrix

TASKS = {
    "implication": ("7/10", implication_rules_bruteforce),
    "similarity": ("3/5", similarity_rules_bruteforce),
}

#: A threshold whose terms overflow int64 products unless the
#: similarity policy snaps it to its Farey ceiling.
HUGE = Fraction(10**20 + 1, 10**20 + 3)


def _thresholds():
    """Each task at its ordinary threshold and at :data:`HUGE`."""
    for task in sorted(TASKS):
        yield pytest.param(task, TASKS[task][0], id=task)
        yield pytest.param(task, HUGE, id=f"{task}-huge")

#: ``(engine, streaming input, memory_budget, n_workers)`` -> the
#: engine ``mine()`` reports, or None when the request is rejected.
PLANS = {
    ("auto", False, None, None): "vector",
    ("auto", False, 1024, None): "vector",
    ("auto", True, None, None): "stream+vector",
    ("auto", True, 1024, None): "stream+vector",
    ("dmc", False, None, None): "dmc",
    ("dmc", False, 1024, None): "dmc",
    ("dmc", True, None, None): None,
    ("dmc", True, 1024, None): None,
    ("vector", False, None, None): "vector",
    ("vector", False, 1024, None): "vector",
    ("vector", True, None, None): None,
    ("vector", True, 1024, None): None,
    ("stream", False, None, None): "stream+vector",
    ("stream", False, 1024, None): "stream+vector",
    ("stream", True, None, None): "stream+vector",
    ("stream", True, 1024, None): "stream+vector",
    ("partitioned", False, None, None): "partitioned+vector",
    ("partitioned", False, 1024, None): None,
    ("partitioned", True, None, None): None,
    ("partitioned", True, 1024, None): None,
    ("vector", False, None, 2): "partitioned+vector",
    ("vector", False, 1024, 2): None,
    # Only the partitioned carrier runs a worker pool, so every other
    # engine refuses n_workers > 1.
    ("auto", False, None, 2): None,
    ("dmc", False, None, 2): None,
    ("stream", False, None, 2): None,
}


def _plan_id(key):
    engine, streaming, budget, workers = key
    data = "source" if streaming else "matrix"
    return f"{engine}-{data}-budget={budget}-workers={workers}"


@pytest.fixture(scope="module")
def matrix():
    """200 rows with 100% rules (column copies) and partial ones
    (noisy copies), so every plan runs both passes; wide enough that
    a 1024-byte budget trips the guard."""
    generator = np.random.default_rng(4)
    base = generator.random((200, 30)) < 0.3
    noisy = (base & (generator.random((200, 30)) < 0.85)) | (
        generator.random((200, 30)) < 0.05
    )
    return BinaryMatrix.from_dense(
        np.hstack([base, base[:, :2], noisy]).astype(np.uint8)
    )


def test_table_covers_every_request():
    requests = {
        (engine, streaming, budget, None)
        for engine in ENGINES
        for streaming in (False, True)
        for budget in (None, 1024)
    }
    assert set(PLANS) == requests | {
        ("vector", False, None, 2), ("vector", False, 1024, 2),
        ("auto", False, None, 2), ("dmc", False, None, 2),
        ("stream", False, None, 2),
    }


@pytest.mark.parametrize("task, threshold", _thresholds())
@pytest.mark.parametrize("key", list(PLANS), ids=_plan_id)
def test_plan_matches_bruteforce(matrix, task, threshold, key):
    engine, streaming, budget, workers = key
    bruteforce = TASKS[task][1]
    data = MatrixSource(matrix) if streaming else matrix
    kwargs = dict(
        task=task, threshold=threshold, engine=engine,
        memory_budget=budget, n_workers=workers,
    )
    if PLANS[key] is None:
        with pytest.raises(ValueError):
            mine(data, **kwargs)
        return
    result = mine(data, **kwargs)
    assert result.engine == result.stats.engine == PLANS[key]
    assert result.stats.scan_engine == (
        "serial" if engine == "dmc" else "vector"
    )
    want = bruteforce(matrix, threshold)
    assert len(want) > 0
    assert rules_to_json(result.rules) == rules_to_json(want)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_vector_scan_checks_the_budget_before_its_first_block_ends(
    matrix, task
):
    """The 200-row matrix is one default block; a hard budget still
    trips the vector <100% scan inside it, as it trips the serial one."""
    threshold, bruteforce = TASKS[task]
    for engine in ("dmc", "vector"):
        result = mine(
            matrix, task=task, threshold=threshold, engine=engine,
            memory_budget=1024,
        )
        assert result.stats.partial_scan.guard_tripped_at is not None, engine
        assert rules_to_json(result.rules) == rules_to_json(
            bruteforce(matrix, threshold)
        )


@pytest.mark.parametrize("hundred_percent_pass", [True, False])
@pytest.mark.parametrize("task", sorted(TASKS))
def test_huge_threshold_runs_the_planned_scan(
    matrix, task, hundred_percent_pass
):
    """At :data:`HUGE` every vector plan, the combined-pass ablation
    included, runs the vector scan and names it on the result, the
    live status and the journal."""
    want = rules_to_json(TASKS[task][1](matrix, HUGE))
    options = PruningOptions(hundred_percent_pass=hundred_percent_pass)
    for engine, planned in (
        ("auto", "vector"), ("vector", "vector"),
        ("stream", "stream+vector"), ("partitioned", "partitioned+vector"),
    ):
        status = LiveRunStatus(f"run-{engine}")
        result = mine(
            matrix, task=task, threshold=HUGE, engine=engine,
            options=options, observer=RunObserver(status=status),
        )
        assert result.engine == planned
        assert status.snapshot()["engine"] == planned
        assert result.stats.scan_engine == "vector"
        assert rules_to_json(result.rules) == want, engine


def test_huge_threshold_reaches_the_journal(matrix, tmp_path):
    path = str(tmp_path / "run.jsonl")
    mine(matrix, minsim=HUGE, engine="vector", journal_path=path)
    assert summarize_journal(path)["engine"] == "vector"


def test_vector_scan_accepts_a_huge_threshold(matrix):
    policy = SimilarityPolicy(matrix.column_ones(), HUGE)
    assert vector_scan(matrix, policy) == similarity_rules_bruteforce(
        matrix, HUGE
    )


@pytest.mark.parametrize("seed", range(6))
def test_thresholds_a_hair_off_each_similarity(seed):
    """Thresholds with 21-digit terms just above and just below a
    similarity the matrix holds: the snap must keep that pair exactly
    when brute force does, on every scan."""
    matrix = random_binary_matrix(seed)
    values = sorted({
        rule.similarity
        for rule in similarity_rules_bruteforce(matrix, Fraction(1, 10**6))
    })
    assert values, seed
    hair = Fraction(1, 10**20)
    for value in values[-4:]:
        for threshold in (value - hair, min(value + hair, Fraction(1))):
            want = rules_to_json(
                similarity_rules_bruteforce(matrix, threshold)
            )
            for engine in ("dmc", "vector", "stream"):
                got = mine(matrix, minsim=threshold, engine=engine)
                assert rules_to_json(got.rules) == want, (
                    seed, threshold, engine,
                )
