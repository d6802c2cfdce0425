"""DMC-sim: the full similarity-rule pipeline (Algorithm 5.1).

Steps, as in the paper:

1. Pre-scan and density bucketing (shared with DMC-imp).
2. Extract 100%-similar (identical) columns: only equal-cardinality
   pairs are candidates and no miss is allowed.
3. Remove every column too sparse for any *non-identical* pair to reach
   ``minsim`` (best case is ``ones/(ones+1)``; exact cutoff, see
   DESIGN.md on the paper's off-by-one).
4. Extract the remaining ``>= minsim`` pairs with DMC-base + DMC-bitmap
   under the similarity policy, which adds the Section 5.1
   column-density pruning (as negative pair budgets) and the Section 5.2
   maximum-hits pruning (as the dynamic check).

Steps 2-4 run in :func:`repro.core.dmc_imp.mine_passes`, shared with
DMC-imp; this task's policies and cutoff are its ``"similarity"`` entry
of :data:`repro.core.dmc_imp.TASKS`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dmc_imp import PruningOptions, mine_matrix
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix


def find_similarity_rules(
    matrix: BinaryMatrix,
    minsim,
    options: Optional[PruningOptions] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
) -> RuleSet:
    """Mine every column pair with similarity ``>= minsim``.

    This is the library's primary similarity-mining entry point.  The
    result is exact: no false positives, no false negatives.
    ``observer`` behaves as in
    :func:`repro.core.dmc_imp.find_implication_rules`.
    """
    return mine_matrix(
        "similarity", matrix, minsim, options, stats, observer
    )
