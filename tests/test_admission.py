"""Row-exact admission in the vector scan (repro.core.vector).

The serial scan (Algorithm 3.1) adds ``c_k`` to ``c_j``'s list only at
a row where ``cnt(c_j)`` is still within the add cutoff.  The vector
scan grants each open owner exactly those rows of a block, so for every
policy whose budget is its add cutoff it admits the serial scan's pairs
and its candidate counters equal the serial scan's, at any block size.
A similarity scan may admit more (the serial scan also refuses pairs
its dynamic check rejects at admission), and its rules must still equal
brute force's.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.miss_counting import miss_counting_scan
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.stats import ScanStats
from repro.core.vector import MatrixBlocks, vector_scan_rows
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order

BLOCK_SIZES = (1, 7, 64, 1024)

#: Counters the vector scan must share with the serial scan when its
#: admission is the serial one.
COUNTERS = (
    "candidates_added", "candidates_deleted", "candidates_rejected",
    "rules_emitted",
)


@st.composite
def matrices(draw):
    """Random rows, plus copies of some columns (identical columns) and
    up to two all-ones columns."""
    n_base = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n_base - 1)),
        min_size=1, max_size=90,
    ))
    copies = draw(st.lists(
        st.integers(min_value=0, max_value=n_base - 1), max_size=3
    ))
    n_columns = n_base + len(copies) + draw(
        st.integers(min_value=0, max_value=2)
    )
    full = range(n_base + len(copies), n_columns)
    return BinaryMatrix(
        [
            sorted(
                row | set(full)
                | {n_base + i for i, c in enumerate(copies) if c in row}
            )
            for row in rows
        ],
        n_columns=n_columns,
    )


thresholds = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(1), max_denominator=12
)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _runs(matrix, policy, order):
    """``(block_rows, rules, stats)`` of the vector scan at every block
    size (sparse discovery, block hits popcounted from the packed
    bitmaps)."""
    for block_rows in BLOCK_SIZES:
        stats = ScanStats()
        rules = vector_scan_rows(
            MatrixBlocks(matrix, order), len(order), policy,
            stats=stats, block_rows=block_rows,
        )
        assert stats.accounting_balanced()
        yield block_rows, rules, stats


def _check_serial_admission(matrix, policy, order, want=None):
    stats = ScanStats()
    serial = miss_counting_scan(matrix, policy, order=order, stats=stats)
    if want is not None:
        assert serial == want
    counters = [getattr(stats, name) for name in COUNTERS]
    for block_rows, rules, got in _runs(matrix, policy, order):
        assert rules == serial, block_rows
        assert [getattr(got, name) for name in COUNTERS] == counters, (
            block_rows
        )


def _order(matrix, sparsest_first):
    return scan_order(matrix, sparsest_first=sparsest_first)


@relaxed
@given(matrix=matrices(), minconf=thresholds, sparsest_first=st.booleans())
def test_implication_admits_the_serial_pairs(matrix, minconf, sparsest_first):
    policy = ImplicationPolicy(matrix.column_ones(), minconf)
    _check_serial_admission(
        matrix, policy, _order(matrix, sparsest_first),
        implication_rules_bruteforce(matrix, minconf),
    )


@relaxed
@given(matrix=matrices(), sparsest_first=st.booleans())
def test_zero_budget_policies_admit_the_serial_pairs(matrix, sparsest_first):
    ones = matrix.column_ones()
    order = _order(matrix, sparsest_first)
    _check_serial_admission(
        matrix, HundredPercentPolicy(ones), order,
        implication_rules_bruteforce(matrix, 1),
    )
    _check_serial_admission(
        matrix, IdentityPolicy(ones), order,
        similarity_rules_bruteforce(matrix, 1),
    )


@relaxed
@given(matrix=matrices(), minsim=thresholds, sparsest_first=st.booleans())
def test_similarity_rules_equal_bruteforce(matrix, minsim, sparsest_first):
    policy = SimilarityPolicy(matrix.column_ones(), minsim)
    order = _order(matrix, sparsest_first)
    want = similarity_rules_bruteforce(matrix, minsim)
    stats = ScanStats()
    miss_counting_scan(matrix, policy, order=order, stats=stats)
    for block_rows, rules, got in _runs(matrix, policy, order):
        assert rules == want, block_rows
        assert got.candidates_added >= stats.candidates_added, block_rows
