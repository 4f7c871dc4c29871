"""Deterministic random test fields for residual checks, certification and
the lemma checkers, drawn as blocks with one field per row.

Trials come in tens: trial ``index`` of ``seed`` is row ``index % 10`` of
a (10, M) block drawn from its own generator, seeded by
(seed, index // 10).  A trial therefore depends only on (seed, index), not
on the block, chunk or caller it lands in, nor on evaluation order, and
one generator serves ten trials (seeding a generator costs more than the
values drawn from it).  The block's rows are rough fields (independent
uniform values in [-1, 1] per node); its last row is then replaced by a
smooth bump profile whose center, width, and amplitude come from the same
generator after the rough rows, so every tenth trial covers extremal-like
candidates as well.  A bump that is zero at every node keeps the rough
row.

The checks draw and evaluate their trials in chunks (``trial_chunks``) of
at most ``grid.PAIR_BLOCK_ELEMENTS`` values, one row per field, so their
scratch memory does not grow with the number of trials.

The trials that several checks share are kept on the kernel
(``shared_trials``): the approximation chain's per-level residual
probes, and the weak residual's trials, which ``fss verify`` also
certifies as its first ones.  Each is drawn once per kernel.  Its lower
bound on the energy (``operators.energy_lower_bound``) and its full
energy [phi]^p are each taken only when a check first asks for them.
The chain (after its walk), the weak residual and the certification ask
for every bound, and for the energy only of the trials whose bound
cannot decide them.
"""

from __future__ import annotations

import numpy as np

from .grid import PAIR_BLOCK_ELEMENTS, Grid, Kernel
from .operators import block_seminorm_p, energy_lower_bound


def trial_field(grid: Grid, seed: int, index: int) -> np.ndarray:
    """Nodal values of trial ``index`` of the sequence for ``seed``."""
    return trial_block(grid, seed, index, 1)[0]


def trial_block(grid: Grid, seed: int, start: int, count: int) -> np.ndarray:
    """Trials ``start`` to ``start + count - 1`` as a (count, M) array.

    Each ten's generator draws only the rows asked of it: the rows before
    them are skipped by advancing the generator one step per value (a
    uniform double takes one 64-bit output), and the bump is drawn only
    when row 9 is asked for.
    """
    m = grid.interior_count
    block = np.empty((count, m))
    lo = np.array([b[0] for b in grid.box])
    hi = np.array([b[1] for b in grid.box])
    first = start
    while first < start + count:
        ten = first // 10
        stop = min(10 * ten + 10, start + count)
        rng = np.random.default_rng([int(seed), ten])
        rng.bit_generator.advance((first - 10 * ten) * m)
        rows = block[first - start:stop - start]
        # uniform(-1, 1) is -1 + 2 u with u from random(), in place here.
        rng.random(out=rows)
        rows *= 2.0
        rows -= 1.0
        if stop == 10 * ten + 10:
            center = lo + rng.uniform(0.2, 0.8, size=grid.n_dim) * (hi - lo)
            width = rng.uniform(0.1, 0.5) * float((hi - lo).max())
            amplitude = rng.uniform(-2.0, 2.0)
            d2 = np.zeros(m)
            for x, c in zip(grid.interior.T, center):
                d2 += (x - c) ** 2
            bump = amplitude * np.exp(-d2 / (2.0 * width**2))
            if np.any(bump != 0.0):
                rows[-1] = bump
        first = stop
    return block


def _chunk_rows(grid: Grid, group: int = 1) -> int:
    """Groups of ``group`` trials per chunk: at most ``PAIR_BLOCK_ELEMENTS``
    values, or one group when a group alone holds more."""
    return max(1, PAIR_BLOCK_ELEMENTS // (group * grid.interior_count))


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
    step = _chunk_rows(grid, group)
    first = start
    while first < count:
        stop = min(first - first % step + step, count)
        yield trial_block(grid, seed, group * first, group * (stop - first))
        first = stop


class TrialSet:
    """Trial fields, one per row, with the energies [phi]^p evaluated so
    far (``known``, NaN for the others) and, once asked for, a lower bound
    on each one's energy (``bounds``).

    It holds arrays only, no reference back to its kernel, so a kernel
    that keeps one is freed at once when dropped rather than by the
    garbage collector.
    """

    def __init__(self, fields: np.ndarray):
        self.fields = fields
        self.known = np.full(len(fields), np.nan)
        self._bounds = None

    def bounds(self, kernel: Kernel) -> np.ndarray:
        """``operators.energy_lower_bound`` of every trial, taken on the
        first call."""
        if self._bounds is None:
            self._bounds = energy_lower_bound(self.fields, kernel)
        return self._bounds

    def energies(self, kernel: Kernel, rows: np.ndarray | None = None
                 ) -> np.ndarray:
        """The energies of trials ``rows`` (an index array; every trial by
        default), in that order.

        Those not known yet are evaluated and kept, in increasing order and
        in blocks of the chunk size of ``trial_chunks``.  Asked for every
        trial at once, a fresh set of trials 0 to count - 1 evaluates the
        blocks of ``trial_chunks``, so at p = 2, where a row's energy
        depends on its block, every energy has the bits of chunk by chunk
        evaluation.
        """
        rows = np.arange(self.known.size) if rows is None else rows
        missing = np.unique(rows[np.isnan(self.known[rows])])
        step = _chunk_rows(kernel.grid)
        for first in range(0, missing.size, step):
            block = missing[first:first + step]
            self.known[block] = block_seminorm_p(self.fields[block], kernel)
        return self.known[rows]


def shared_trials(kernel: Kernel, seed: int, count: int) -> TrialSet:
    """Trials 0 to ``count - 1`` of ``seed`` (at least one) on ``kernel``,
    drawn chunk by chunk on the first call for (``seed``, ``count``) and
    kept on the kernel after."""
    key = (seed, count)
    if key not in kernel._trials:
        kernel._trials[key] = TrialSet(
            np.concatenate(list(trial_chunks(kernel.grid, seed, count))))
    return kernel._trials[key]
