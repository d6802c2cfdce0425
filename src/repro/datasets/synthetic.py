"""Shared synthetic building blocks: Zipf sampling and planted structure.

These primitives feed both the dataset simulators and the property
tests (which need matrices with *known* embedded rules to check that
mining recovers them).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.matrix.binary_matrix import BinaryMatrix


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf weights ``1/rank**exponent`` for ``n`` items."""
    if n < 1:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def random_matrix(
    n_rows: int,
    n_columns: int,
    density: float,
    seed: int = 0,
) -> BinaryMatrix:
    """Uniform i.i.d. Bernoulli matrix (the null model for tests)."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_columns)) < density
    return BinaryMatrix.from_dense(dense.astype(np.uint8))


def planted_rule_matrix(
    n_rows: int,
    n_columns: int,
    rules: Sequence[Tuple[int, int, float]],
    background_density: float = 0.05,
    antecedent_ones: int = 20,
    seed: int = 0,
) -> BinaryMatrix:
    """Background noise plus planted implications ``(i, j, confidence)``.

    Each planted antecedent ``c_i`` receives ``antecedent_ones`` rows;
    the consequent ``c_j`` is set in a ``confidence`` fraction of them
    (rounded to a count), so ``Conf(c_i => c_j)`` is at least the
    requested value by construction.
    """
    rng = np.random.default_rng(seed)
    dense = (
        rng.random((n_rows, n_columns)) < background_density
    ).astype(np.uint8)
    for i, j, confidence in rules:
        rows = rng.choice(n_rows, size=min(antecedent_ones, n_rows),
                          replace=False)
        dense[:, i] = 0
        dense[rows, i] = 1
        hit_count = int(np.ceil(confidence * len(rows)))
        dense[rows[:hit_count], j] = 1
    return BinaryMatrix.from_dense(dense)


def planted_similarity_matrix(
    n_rows: int,
    n_columns: int,
    groups: Sequence[Tuple[List[int], float]],
    background_density: float = 0.03,
    group_ones: int = 24,
    seed: int = 0,
) -> BinaryMatrix:
    """Background noise plus groups of mutually similar columns.

    Each group ``(columns, similarity)`` shares a core row set; every
    member adds private rows sized so that any two members' Jaccard
    similarity is at least ``similarity``.
    """
    rng = np.random.default_rng(seed)
    dense = (
        rng.random((n_rows, n_columns)) < background_density
    ).astype(np.uint8)
    for columns, similarity in groups:
        core_size = group_ones
        # sim = core / (core + 2*private)  =>  private per member:
        private_size = int(core_size * (1.0 - similarity) / (2 * similarity))
        needed = core_size + private_size * len(columns)
        pool = rng.choice(n_rows, size=min(needed, n_rows), replace=False)
        core = pool[:core_size]
        for index, column in enumerate(columns):
            dense[:, column] = 0
            dense[core, column] = 1
            start = core_size + index * private_size
            private = pool[start : start + private_size]
            dense[private, column] = 1
    return BinaryMatrix.from_dense(dense)


def heavy_tail_row_sizes(
    rng: np.random.Generator,
    n_rows: int,
    typical: int,
    heavy_fraction: float,
    heavy_size: int,
    maximum: Optional[int] = None,
) -> np.ndarray:
    """Row densities: mostly small (geometric around ``typical``) with a
    ``heavy_fraction`` of very dense rows (the web-crawler clients that
    drive the paper's Figure 3 memory explosion)."""
    sizes = rng.geometric(p=min(0.999, 1.0 / max(typical, 1)), size=n_rows)
    n_heavy = int(round(heavy_fraction * n_rows))
    if n_heavy:
        heavy_ids = rng.choice(n_rows, size=n_heavy, replace=False)
        sizes[heavy_ids] = rng.integers(
            heavy_size // 2, heavy_size + 1, size=n_heavy
        )
    if maximum is not None:
        sizes = np.minimum(sizes, maximum)
    return sizes
