"""Discovery windows (repro.matrix.ops.co_occurrences, repro.core.bitmap.
new_pairs) against the admission test they replace.

An open owner's window is a canonical-rank range: the columns after it
in canonical order (``ones``, ties by id) whose ``ones`` are at most the
policy's ceiling at the owner's block-start count (from its row's first
column for the partitioned carrier's all-pairs policy).  For every
policy the windowed pairs must be exactly the co-occurrences, counted
row by row over each owner's allowed rows, that the old post-filter
admitted: the eligibility predicate below
(the array twin of ``PairPolicy.eligible`` the windows retire) with the
owner's count within the pair budget.  The sparse discovery kernel runs
at several ``_PAIR_CHUNK_ENTRIES`` bounds, so its chunks and both of its
ways of counting hits (in place, and by sorting the products) are
checked.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.matrix.ops as ops
from repro.core.bitmap import new_pairs
from repro.core.partitioned import _AllPairsImplicationPolicy
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.matrix.ops import (
    CanonicalOrder,
    RowBlocks,
    block_bitmaps,
    co_occurrences,
)
from tests.conftest import dense_block

CHUNK_BOUNDS = (1, 7, ops._PAIR_CHUNK_ENTRIES)


def _eligible(policy, owners, cands):
    """The eligibility predicate discovery used to filter by: canonical
    order (both directions for the all-pairs policy), restricted to the
    owner mask, to Section 5.1's density bound and to equal ``ones``
    per policy."""
    ones = policy.ones_array()
    ones_j, ones_k = ones[owners], ones[cands]
    if isinstance(policy, _AllPairsImplicationPolicy):
        return owners != cands
    mask = (ones_j < ones_k) | ((ones_j == ones_k) & (owners < cands))
    if isinstance(policy, (HundredPercentPolicy, IdentityPolicy)):
        mask &= policy.owners[owners]
    if isinstance(policy, IdentityPolicy):
        mask &= ones_j == ones_k
    if isinstance(policy, SimilarityPolicy) and policy.use_density_pruning:
        mask &= ones_j * policy._q >= policy._p * ones_k
    return mask


def _admitted(policy, owners, cands, start):
    """The old admission test: eligible, with the owner's block-start
    count within the pair budget."""
    return _eligible(policy, owners, cands) & (
        start[owners] <= policy.budget_array(owners, cands)
    )


@st.composite
def blocks(draw):
    """``(rows, ones)``: random rows plus copies of some columns
    (identical columns) and up to two all-ones columns; each column's
    ``ones`` is its block count plus a small extra, equal for copies,
    so equal counts (ties broken by id) are common."""
    n_base = draw(st.integers(min_value=1, max_value=9))
    rows = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n_base - 1)),
        min_size=1, max_size=30,
    ))
    copies = draw(st.lists(
        st.integers(min_value=0, max_value=n_base - 1), max_size=3
    ))
    n_full = draw(st.integers(min_value=0, max_value=2))
    n_columns = n_base + len(copies) + n_full
    full = set(range(n_base + len(copies), n_columns))
    rows = [
        sorted(
            row | full
            | {n_base + i for i, c in enumerate(copies) if c in row}
        )
        for row in rows
    ]
    extra = draw(st.lists(
        st.integers(min_value=0, max_value=2),
        min_size=n_columns, max_size=n_columns,
    ))
    for i, column in enumerate(copies):
        extra[n_base + i] = extra[column]
    counts = np.bincount(
        [c for row in rows for c in row], minlength=n_columns
    )
    return rows, (counts + np.array(extra)).tolist()


def _policies(draw, ones):
    n = len(ones)
    mask = np.array(draw(st.lists(
        st.booleans(), min_size=n, max_size=n
    )))
    minconf = draw(st.fractions(
        min_value=Fraction(1, 7), max_value=Fraction(1),
        max_denominator=7,
    ))
    minsim = draw(st.fractions(
        min_value=Fraction(1, 7), max_value=Fraction(1),
        max_denominator=7,
    ))
    return [
        ImplicationPolicy(ones, minconf),
        _AllPairsImplicationPolicy(ones, minconf),
        HundredPercentPolicy(ones),
        HundredPercentPolicy(ones, owners=mask),
        SimilarityPolicy(ones, minsim),
        SimilarityPolicy(ones, minsim, use_density_pruning=False),
        IdentityPolicy(ones),
        IdentityPolicy(ones, owners=mask),
    ]


def _start_counts(draw, policy):
    """Each column's count at block start: zero (every policy's owners
    open), any count up to its ones, or ``ones - p*t``, which puts a
    similarity policy's ``q*ones - (p+q)*cnt`` exactly on a multiple of
    ``p`` (its ceiling then is exact)."""
    p = getattr(policy, "_p", 1)
    start = []
    for ones in policy.ones:
        kind = draw(st.sampled_from(("zero", "any", "multiple")))
        if kind == "zero":
            start.append(0)
        elif kind == "any":
            start.append(draw(st.integers(min_value=0, max_value=ones)))
        else:
            t = draw(st.integers(min_value=0, max_value=ones // p))
            start.append(ones - p * t)
    return np.array(start, dtype=np.int64)


def _row_pairs(rows, allowance):
    """Every co-occurring ``(owner, cand, hits)``, counted row by row
    over each owner's first ``allowance[owner]`` rows."""
    hits, seen = {}, {}
    for row in rows:
        for owner in set(row) & set(allowance):
            seen[owner] = seen.get(owner, 0) + 1
            if seen[owner] > allowance[owner]:
                continue
            for cand in set(row) - {owner}:
                hits[owner, cand] = hits.get((owner, cand), 0) + 1
    return sorted((o, c, h) for (o, c), h in hits.items())


def _triples(pairs):
    return sorted(
        (int(o), int(c), int(h))
        for owners, cands, hits in pairs
        for o, c, h in zip(owners, cands, hits)
    )


relaxed = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@relaxed
@given(block=blocks(), data=st.data())
def test_windows_yield_exactly_the_admitted_pairs(block, data):
    rows, ones = block
    _, lengths, cols = RowBlocks(list(enumerate(rows))).take(len(rows))
    n_columns = len(ones)
    counts, active, to_active, bitmaps = block_bitmaps(
        lengths, cols, n_columns
    )
    dense = dense_block(lengths, cols, to_active, len(active))
    whole = dense.T @ dense
    for policy in _policies(data.draw, ones):
        start = _start_counts(data.draw, policy)
        # The scans' open owners: count still within the add cutoff.
        allowance = policy.add_cutoff_array()[active] - start[active] + 1
        picked = np.flatnonzero(allowance > 0)
        allowance = allowance[picked]
        order = CanonicalOrder(ones, policy.after_owner)
        ends = order.ends(
            policy.cand_ceiling(active[picked], start[active[picked]])
        )
        unwindowed = _row_pairs(
            rows, dict(zip(active[picked].tolist(), allowance.tolist()))
        )
        want = []
        if unwindowed:
            o, c, _ = np.array(unwindowed).T
            keep = _admitted(policy, o, c, start)
            want = [t for t, k in zip(unwindowed, keep) if k]
        name = type(policy).__name__
        for bound in CHUNK_BOUNDS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ops, "_PAIR_CHUNK_ENTRIES", bound)
                got = _triples(co_occurrences(
                    lengths, cols, to_active, active, picked, order,
                    ends, allowance,
                ))
                assert got == want, (name, bound)
                _check_new_pairs(
                    (lengths, cols, counts, active, to_active),
                    picked, allowance, order, ends, bitmaps, whole, want,
                    data.draw,
                )


def _check_new_pairs(
    block, picked, allowance, order, ends, bitmaps, whole, admitted, draw,
):
    """``new_pairs`` yields the admitted pairs minus the live ones, each
    capped owner's hits over the whole block (``whole``, the block's
    co-occurrence matrix)."""
    _, _, counts, active, to_active = block
    n_columns = len(to_active)
    live = [t[:2] for t in admitted if draw(st.booleans())]
    live_keys = np.array(
        [o * n_columns + c for o, c in live], dtype=np.int64
    )
    full = dict(zip(
        active[picked].tolist(), (allowance >= counts[active[picked]]).tolist()
    ))
    want = sorted(
        (o, c, h if full[o] else int(whole[to_active[o], to_active[c]]))
        for o, c, h in admitted if (o, c) not in set(live)
    )
    got = _triples(new_pairs(
        block, picked, allowance, order, ends, bitmaps, live_keys,
    ))
    assert got == want
