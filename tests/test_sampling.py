"""The block draw of trial fields, its chunks, and the checks built on them."""

import numpy as np
import pytest

from fss import (
    Field,
    WeightField,
    build_grid,
    build_kernel,
    check_q_identity,
    check_strong_monotonicity,
    weak_residual,
)
from fss import constants, operators, sampling
from fss.grid import PAIR_BLOCK_ELEMENTS
from fss.sampling import trial_block, trial_chunks

from oracles import trial_field


@pytest.fixture(scope="module")
def grid_2d():
    """529 interior nodes: 61 trial rows per chunk."""
    return build_grid([(0.0, 1.0), (0.0, 1.0)], 1.0 / 24, 0.25)


class TestTrialBlock:
    @pytest.mark.parametrize("start,count", [(0, 1), (0, 30), (9, 1),
                                             (7, 13), (19, 22)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_equal_reference_draw(self, grid_1d, grid_2d, dim, start,
                                       count):
        grid = grid_1d if dim == 1 else grid_2d
        expected = np.array([trial_field(grid, 5, index).values
                             for index in range(start, start + count)])
        assert np.array_equal(trial_block(grid, 5, start, count), expected)

    def test_empty(self, grid_1d):
        assert trial_block(grid_1d, 0, 4, 0).shape == (0, 16)

    def test_trial_depends_only_on_its_index(self, grid_2d):
        whole = trial_block(grid_2d, 3, 0, 500)
        for start in (7, 9, 61, 200):
            assert np.array_equal(trial_block(grid_2d, 3, start, 13),
                                  whole[start:start + 13])
            assert np.array_equal(sampling.trial_field(grid_2d, 3, start),
                                  whole[start])
            singles = np.concatenate(list(trial_chunks(grid_2d, 3, 500,
                                                       start=start)))
            assert np.array_equal(singles, whole[start:])
            pairs = np.concatenate(list(trial_chunks(grid_2d, 3, 250, 2,
                                                     start=start)))
            assert np.array_equal(pairs, whole[2 * start:])

    def test_every_tenth_trial_is_the_bump(self, grid_1d):
        # A bump a exp(-|x - c|^2 / (2 w^2)) keeps one sign, and on the
        # line its log has the constant second difference -h^2 / w^2.
        block = trial_block(grid_1d, 5, 0, 60)
        for index, row in enumerate(block):
            if index % 10 == 9:
                assert np.all(row > 0.0) or np.all(row < 0.0)
                curvature = np.diff(np.log(np.abs(row)), 2)
                assert np.ptp(curvature) <= 1e-12 * np.abs(curvature).max()
                assert curvature.max() < 0.0
            else:
                assert row.min() < 0.0 < row.max()
                assert np.abs(row).max() <= 1.0

    def test_zero_bump_keeps_its_rough_row(self, grid_1d, monkeypatch):
        # A width of 1e-100 makes exp underflow to 0 at every node.
        generator = np.random.default_rng

        class NarrowBumps(np.random.Generator):
            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))

            def uniform(self, low=0.0, high=1.0, size=None):
                drawn = super().uniform(low, high, size)
                return 1e-100 if (low, high) == (0.1, 0.5) else drawn

        monkeypatch.setattr(np.random, "default_rng", NarrowBumps)
        block = trial_block(grid_1d, 5, 0, 20)
        monkeypatch.setattr(np.random, "default_rng", generator)
        m = grid_1d.interior_count
        rough = np.concatenate([generator([5, ten]).uniform(-1.0, 1.0, (10, m))
                                for ten in (0, 1)])
        assert np.array_equal(block, rough)
        assert not np.array_equal(trial_block(grid_1d, 5, 0, 20), rough)

    @pytest.mark.parametrize("start,count,generators", [
        (0, 100, 10), (7, 13, 2), (9, 1, 1), (9, 2, 2), (10, 10, 1),
        (0, 0, 0)])
    def test_one_generator_per_ten_trials(self, grid_1d, monkeypatch, start,
                                          count, generators):
        seeds = []
        generator = np.random.default_rng

        def counted(seed):
            seeds.append(seed)
            return generator(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        trial_block(grid_1d, 5, start, count)
        assert seeds == [[5, ten] for ten in range(start // 10,
                                                    start // 10 + generators)]


    @pytest.mark.parametrize("start,count,bumps", [
        (7, 5, 1), (11, 3, 0), (0, 20, 2), (3, 1, 0), (19, 1, 1)])
    def test_draws_only_the_rows_asked(self, grid_1d, monkeypatch, start,
                                       count, bumps):
        # Rows before the first asked are skipped, not drawn, and a ten
        # draws its bump (center, width, amplitude) only when its row 9
        # is asked for.  Every value drawn from the generator counts.
        drawn = []

        class Counted(np.random.Generator):
            def __init__(self, seed):
                super().__init__(np.random.PCG64(seed))

            def random(self, size=None, dtype=np.float64, out=None):
                values = super().random(size, dtype, out)
                drawn.append(np.size(values))
                return values

            def uniform(self, low=0.0, high=1.0, size=None):
                values = super().uniform(low, high, size)
                drawn.append(np.size(values))
                return values

        monkeypatch.setattr(np.random, "default_rng", Counted)
        trial_block(grid_1d, 5, start, count)
        assert sum(drawn) == count * grid_1d.interior_count + 3 * bumps


class TestTrialChunks:
    @pytest.mark.parametrize("count,group", [(1000, 1), (300, 2), (61, 1),
                                             (7, 2), (0, 1)])
    def test_chunks_split_the_block(self, grid_2d, count, group):
        chunks = list(trial_chunks(grid_2d, 3, count, group))
        assert all(c.size <= PAIR_BLOCK_ELEMENTS for c in chunks)
        assert all(c.shape[0] % group == 0 for c in chunks)
        joined = np.concatenate([np.empty((0, grid_2d.interior_count))]
                                + chunks)
        assert np.array_equal(joined,
                              trial_block(grid_2d, 3, 0, count * group))

    def test_late_start_splits_only_its_block(self, grid_2d):
        whole = list(trial_chunks(grid_2d, 3, 1000))
        late = list(trial_chunks(grid_2d, 3, 1000, start=200))
        assert [c.shape[0] for c in whole[:4]] == [61, 61, 61, 61]
        assert late[0].shape[0] == 4 * 61 - 200
        assert np.array_equal(late[0], whole[3][200 - 3 * 61:])
        assert len(late) == len(whole) - 3
        assert all(np.array_equal(a, b) for a, b in zip(late[1:], whole[4:]))
        assert list(trial_chunks(grid_2d, 3, 200, start=200)) == []

    def test_group_larger_than_bound_is_one_chunk(self, grid_1d, monkeypatch):
        monkeypatch.setattr(sampling, "PAIR_BLOCK_ELEMENTS", 20)
        chunks = list(trial_chunks(grid_1d, 3, 4, 2))
        assert [c.shape for c in chunks] == [(2, 16)] * 4


def record_chunks(monkeypatch, elements):
    """Cap the chunks at ``elements`` values and record every drawn chunk's
    size."""
    monkeypatch.setattr(sampling, "PAIR_BLOCK_ELEMENTS", elements)
    sizes = []
    draw = sampling.trial_block

    def recorded(grid, seed, start, count):
        block = draw(grid, seed, start, count)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(sampling, "trial_block", recorded)
    return sizes


def count_draws(monkeypatch):
    """Count every trial row drawn from now on, in a one-item list."""
    draws = [0]
    draw = sampling.trial_block

    def counted(grid, seed, start, count):
        draws[0] += count
        return draw(grid, seed, start, count)

    monkeypatch.setattr(sampling, "trial_block", counted)
    return draws


def count_energy_rows(monkeypatch):
    """Record the rows of every block whose energies [v]^p are evaluated
    from now on, by the certifications and by the kept trials, in a list
    of block sizes."""
    rows = []
    evaluate = operators.block_seminorm_p

    def counted(block, kernel):
        rows.append(block.shape[0])
        return evaluate(block, kernel)

    for module in (constants, sampling):
        monkeypatch.setattr(module, "block_seminorm_p", counted)
    return rows


def _residual(kernel):
    grid = kernel.grid
    u = Field(np.linspace(0.5, 1.5, grid.interior_count), grid)
    omega = WeightField(np.linspace(0.0, 1.0, grid.interior_count), grid)
    return weak_residual(u, omega, 0.5, kernel, trials=100, seed=4)


CHECKS = {
    "strong-monotonicity": lambda kernel: check_strong_monotonicity(
        kernel, trials=100, seed=4).to_json_record(),
    "q-identity": lambda kernel: check_q_identity(
        kernel, trials=5, seed=4).to_json_record(),
    "weak-residual": _residual,
}


class TestChunkedChecks:
    """Every randomized check draws its trials in chunks within the bound,
    and its report does not depend on the chunk size (bitwise at p != 2).
    The certifications are covered in test_constants.py."""

    @pytest.mark.parametrize("name", sorted(CHECKS))
    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunk_size_is_invisible(self, kernel_1d_p3, monkeypatch, name,
                                     rows):
        whole = CHECKS[name](kernel_1d_p3)
        bound = rows * 2 * kernel_1d_p3.interior_count
        sizes = record_chunks(monkeypatch, bound)
        # On a fresh kernel, which keeps no trials yet.
        fresh = build_kernel(kernel_1d_p3.grid, kernel_1d_p3.params)
        assert CHECKS[name](fresh) == whole
        assert len(sizes) > 1
        assert max(sizes) <= bound
