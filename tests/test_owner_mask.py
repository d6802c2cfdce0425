"""Each pass admits only the candidates its rules need.

The 100% pass (step 2) gives lists only to the columns step 3 removes:
a kept column's 100% rules have kept consequents (the canonical order
puts the sparser column first), and the <100% pass, whose budgets are
all ``>= 0``, emits them with the same hits and ones.  The DMC-bitmap
tail pairs an open owner only over the rows where its count is still
within its add cutoff.  Neither may change a rule.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.miss_counting import BitmapConfig
from repro.matrix.stream import MatrixSource
from tests.test_admission import matrices, relaxed


@st.composite
def mining_inputs(draw):
    """A matrix, a threshold ``k / ones(c)`` of one of its columns (so
    ``ones(c) * threshold`` is an integer) and a bitmap switch point."""
    matrix = draw(matrices())
    ones = [o for o in matrix.column_ones() if o] or [1]
    whole = draw(st.sampled_from(ones))
    threshold = Fraction(draw(st.integers(1, whole)), whole)
    switch = BitmapConfig(
        switch_rows=draw(st.integers(0, matrix.n_rows)),
        memory_budget_bytes=0,
    )
    return matrix, threshold, switch


@relaxed
@given(data=mining_inputs())
def test_plans_with_owner_masked_hundred_pass_equal_bruteforce(data):
    """The 100% pass owns only the columns step 3 removes and the tail
    admits row-exactly; every plan still mines brute force's rules, the
    100% count is the rules with ``part == whole``, and the vector and
    serial 100% passes add the same candidates."""
    matrix, threshold, switch = data
    for task, bruteforce in (
        ("implication", implication_rules_bruteforce),
        ("similarity", similarity_rules_bruteforce),
    ):
        want = bruteforce(matrix, threshold)
        added = {}
        for engine in ("dmc", "vector", "stream"):
            result = repro.mine(
                MatrixSource(matrix) if engine == "stream" else matrix,
                task=task, threshold=threshold, engine=engine,
                bitmap=switch,
            )
            assert result.rules == want, (task, engine)
            part, whole = result.rules.columns()[2:]
            stats = result.stats
            assert stats.rules_hundred_percent == np.count_nonzero(
                part == whole
            )
            assert stats.rules_partial == (
                len(want) - stats.rules_hundred_percent
            )
            added[engine] = stats.hundred_percent_scan.candidates_added
        assert added["dmc"] == added["vector"], task
