"""Exact rational threshold arithmetic for confidence and similarity.

The paper's headline claim is that DMC produces *no* false positives and
*no* false negatives.  Preserving that claim in Python requires all
threshold comparisons to be exact, so thresholds are normalized to
:class:`fractions.Fraction` and every validity predicate is an integer
comparison.  A float such as ``0.85`` is interpreted through its decimal
string (``Fraction("0.85") == 17/20``), matching user intent rather than
the float's binary expansion.

Derivations (with threshold ``p/q`` and ``ones`` written ``o``):

- confidence ``hits/o >= p/q``  ⇔  ``hits*q >= p*o``; the miss budget is
  ``maxmiss = floor(o*(q-p)/q)`` (Algorithm 3.1 step 2).
- similarity of a pair with ``o_i <= o_j``: because
  ``|S_i ∪ S_j| = o_j + miss_i`` where ``miss_i = |S_i \\ S_j|``, the
  similarity ``(o_i - miss_i)/(o_j + miss_i)`` is fully determined by the
  sparse-side miss count, giving the exact per-pair budget
  ``maxmiss(i,j) = floor((q*o_i - p*o_j)/(p+q))``.  A negative budget is
  precisely the Section 5.1 column-density pruning condition
  ``o_i/o_j < minsim``.

The column-removal cutoffs fix an off-by-one in the paper (see
DESIGN.md section 2.3): we remove exactly the columns for which no
less-than-100% rule can exist, rather than the paper's ``<=`` cutoffs
which can drop boundary columns that still admit one miss.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Threshold = Union[float, int, str, Fraction]


def as_fraction(threshold: Threshold) -> Fraction:
    """Normalize a threshold to an exact ``Fraction`` in ``(0, 1]``.

    Floats go through their shortest decimal representation so that
    ``as_fraction(0.85) == Fraction(17, 20)``.
    """
    if isinstance(threshold, Fraction):
        value = threshold
    elif isinstance(threshold, bool):
        raise TypeError("threshold must be a number, not bool")
    elif isinstance(threshold, int):
        value = Fraction(threshold)
    elif isinstance(threshold, float):
        value = Fraction(repr(threshold))
    elif isinstance(threshold, str):
        value = Fraction(threshold)
    else:
        raise TypeError(f"unsupported threshold type: {type(threshold)!r}")
    if not 0 < value <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {value}")
    return value


def farey_ceiling(value: Fraction, order: int) -> Fraction:
    """The smallest fraction ``>= value`` whose denominator is ``<= order``.

    For ``0 <= value <= 1`` and every ``x/y`` with ``1 <= y <= order``,
    ``x/y >= value`` iff ``x/y >= farey_ceiling(value, order)``: no such
    ``x/y`` lies in between.  The continued-fraction walk is the one of
    :meth:`fractions.Fraction.limit_denominator`; its two bounds are the
    neighbours of ``value`` in the Farey sequence of ``order``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if value.denominator <= order:
        return value
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = value.numerator, value.denominator
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > order:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (order - q0) // q1
    bounds = Fraction(p0 + k * p1, q0 + k * q1), Fraction(p1, q1)
    return max(bounds)


# ----------------------------------------------------------------------
# Confidence (implication rules)
# ----------------------------------------------------------------------


def max_misses(ones: int, minconf: Fraction) -> int:
    """Miss budget for a column with ``ones`` 1's: ``floor((1-minconf)*ones)``.

    A rule ``c_i => c_j`` is valid iff the number of rows where ``c_i``
    is 1 but ``c_j`` is 0 does not exceed this budget.
    """
    if ones < 0:
        raise ValueError("ones must be non-negative")
    p, q = minconf.numerator, minconf.denominator
    return (ones * (q - p)) // q


def min_hits(ones: int, minconf: Fraction) -> int:
    """Minimum intersection size for a valid rule: ``ceil(minconf*ones)``."""
    if ones < 0:
        raise ValueError("ones must be non-negative")
    p, q = minconf.numerator, minconf.denominator
    return -((-p * ones) // q)


def confidence_holds(hits: int, ones: int, minconf: Fraction) -> bool:
    """Exact test of ``hits/ones >= minconf`` (False when ``ones == 0``)."""
    if ones <= 0:
        return False
    return hits * minconf.denominator >= minconf.numerator * ones


def confidence_removal_cutoff(minconf: Fraction) -> int:
    """Largest ``ones`` for which the miss budget is still zero.

    DMC-imp step 3 removes columns whose budget is zero after the
    100%-rule pass: those with ``ones <= confidence_removal_cutoff``.
    For ``minconf == 1`` every budget is zero, so the cutoff is
    unbounded; callers special-case that (the <100% pass is skipped).
    """
    p, q = minconf.numerator, minconf.denominator
    if p == q:
        raise ValueError("no finite cutoff at minconf == 1")
    # max_misses(o) == 0  ⇔  o*(q-p) < q  ⇔  o <= ceil(q/(q-p)) - 1.
    return -((-q) // (q - p)) - 1


# ----------------------------------------------------------------------
# Similarity (symmetric rules)
# ----------------------------------------------------------------------


def similarity_holds(
    intersection: int, union: int, minsim: Fraction
) -> bool:
    """Exact test of ``intersection/union >= minsim`` (False for empty union)."""
    if union <= 0:
        return False
    return intersection * minsim.denominator >= minsim.numerator * union


def pair_max_misses(ones_i: int, ones_j: int, minsim: Fraction) -> int:
    """Exact sparse-side miss budget for the pair ``(c_i, c_j)``.

    Requires ``ones_i <= ones_j``.  Returns a negative number when the
    pair can never reach ``minsim`` (column-density pruning).
    """
    if ones_i > ones_j:
        raise ValueError("pair_max_misses expects ones_i <= ones_j")
    p, q = minsim.numerator, minsim.denominator
    return (q * ones_i - p * ones_j) // (p + q)


def density_prunable(ones_i: int, ones_j: int, minsim: Fraction) -> bool:
    """Section 5.1 test: True when ``ones_i/ones_j < minsim``."""
    if ones_i > ones_j:
        ones_i, ones_j = ones_j, ones_i
    if ones_j == 0:
        return True
    return ones_i * minsim.denominator < minsim.numerator * ones_j


def similarity_removal_cutoff(minsim: Fraction) -> int:
    """Largest ``ones`` for which no *non-identical* pair can reach ``minsim``.

    After the identical-column pass, DMC-sim step 3 removes columns with
    ``ones <= similarity_removal_cutoff``: their best non-identical
    similarity is ``ones/(ones+1) < minsim``.
    """
    p, q = minsim.numerator, minsim.denominator
    if p == q:
        raise ValueError("no finite cutoff at minsim == 1")
    # o/(o+1) < p/q  ⇔  o*(q-p) < p  ⇔  o <= ceil(p/(q-p)) - 1.
    return -((-p) // (q - p)) - 1


def max_possible_hits(
    hits_so_far: int, remaining_i: int, remaining_j: int
) -> int:
    """Section 5.2 bound on the final intersection size of a pair.

    ``hits_so_far`` counts rows already seen with both columns set;
    ``remaining_*`` count each column's unseen 1's.  At most
    ``min(remaining_i, remaining_j)`` further hits can occur.
    """
    return hits_so_far + min(remaining_i, remaining_j)


def max_hits_prunable(
    ones_i: int,
    ones_j: int,
    count_i: int,
    misses_i: int,
    count_j: int,
    minsim: Fraction,
) -> bool:
    """Section 5.2 maximum-hits pruning test for a live candidate pair.

    ``count_*`` are the 1's of each column seen so far and ``misses_i``
    the sparse-side misses accumulated so far.  Returns True when even
    the best possible future cannot lift the pair to ``minsim`` — i.e.
    the minimum achievable final sparse-side miss count already exceeds
    the pair budget.
    """
    remaining_i = ones_i - count_i
    remaining_j = ones_j - count_j
    best_final_misses = misses_i + max(0, remaining_i - remaining_j)
    return best_final_misses > pair_max_misses(ones_i, ones_j, minsim)
