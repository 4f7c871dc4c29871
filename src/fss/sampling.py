"""Deterministic random test fields for residual checks, certification and
the lemma checkers, drawn as blocks with one field per row.

Trial ``index`` draws from its own generator seeded by (seed, index), so
every trial is reproducible independently of the block it lands in and of
evaluation order.  Nine out of ten trials are rough fields (independent
uniform values in [-1, 1] per node); every tenth is a smooth bump profile
with random center, width, and amplitude, covering extremal-like
candidates as well.

The checks draw and evaluate their trials in chunks (``trial_chunks``) of
at most ``grid.PAIR_BLOCK_ELEMENTS`` values, one row per field, so their
scratch memory does not grow with the number of trials.
"""

from __future__ import annotations

import numpy as np

from .grid import PAIR_BLOCK_ELEMENTS, Grid


def trial_field(grid: Grid, seed: int, index: int) -> np.ndarray:
    """Nodal values of trial ``index`` of the sequence for ``seed``."""
    rng = np.random.default_rng([int(seed), int(index)])
    if index % 10 == 9:
        lo = np.array([b[0] for b in grid.box])
        hi = np.array([b[1] for b in grid.box])
        center = lo + rng.uniform(0.2, 0.8, size=grid.n_dim) * (hi - lo)
        width = rng.uniform(0.1, 0.5) * float((hi - lo).max())
        amplitude = rng.uniform(-2.0, 2.0)
        d2 = ((grid.interior - center) ** 2).sum(axis=1)
        values = amplitude * np.exp(-d2 / (2.0 * width**2))
        if np.all(values == 0.0):
            values = rng.uniform(-1.0, 1.0, grid.interior_count)
    else:
        values = rng.uniform(-1.0, 1.0, grid.interior_count)
    return values


def trial_block(grid: Grid, seed: int, start: int, count: int) -> np.ndarray:
    """Trials ``start`` to ``start + count - 1`` as a (count, M) array."""
    block = np.empty((count, grid.interior_count))
    for row in range(count):
        block[row] = trial_field(grid, seed, start + row)
    return block


def trial_chunks(grid: Grid, seed: int, count: int, group: int = 1,
                 start: int = 0):
    """Groups ``start`` to ``count - 1`` of ``group`` trials each, as
    consecutive blocks (one field per row) of at most
    ``PAIR_BLOCK_ELEMENTS`` values, or of one group when a group alone
    holds more.

    Blocks end at multiples of the chunk size counted from group 0, so a
    range that starts late splits only the block holding its start: at
    p = 2 a block's energies come from one GEMM, whose rounding depends
    on the block, and every other block keeps its bits.
    """
    step = max(1, PAIR_BLOCK_ELEMENTS // (group * grid.interior_count))
    first = start
    while first < count:
        stop = min(first - first % step + step, count)
        yield trial_block(grid, seed, group * first, group * (stop - first))
        first = stop
