import math

import numpy as np
import pytest

from fss import (
    ChainOptions,
    FssError,
    apply_operator,
    check_q_identity,
    check_stampacchia,
    check_strong_monotonicity,
    check_vector_inequalities,
    embedding_constant,
    level_set_sizes,
    norm_r,
    run_chain,
)

from oracles import trial_field, vector_inequalities_per_trial


class TestVectorInequalities:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_passes(self, p):
        report = check_vector_inequalities(p, trials=1000, seed=42)
        assert report.passed
        assert report.constants["C_p"] > 0.0

    def test_p2_identity(self):
        # both comparisons collapse to |X - Y| identities at p = 2
        report = check_vector_inequalities(2.0, trials=1000, seed=42)
        assert abs(report.constants["c_p"] - 1.0) <= 1e-12
        assert abs(report.constants["C_p"] - 1.0) <= 1e-12

    def test_p3_known_pair(self):
        # X = (1,0), Y = (0,1), p = 3: the product side is |X-Y|^2 = 2 and
        # the comparison term |X-Y|^3 = 2 sqrt(2); the fitted lower
        # constant can be no larger than their ratio 1/sqrt(2).
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        diff = np.linalg.norm(x) ** 1.0 * x - np.linalg.norm(y) ** 1.0 * y
        product = float(diff @ (x - y))
        assert product == pytest.approx(2.0)
        core = np.linalg.norm(x - y) ** 3
        assert core == pytest.approx(2.0 * math.sqrt(2.0))
        report = check_vector_inequalities(3.0, trials=2000, seed=1)
        assert report.constants["C_p"] <= product / core + 1e-12

    def test_seeded_reproducibility(self):
        a = check_vector_inequalities(1.5, trials=300, seed=9)
        b = check_vector_inequalities(1.5, trials=300, seed=9)
        assert a.to_json_record() == b.to_json_record()

    @pytest.mark.parametrize("trials", [1, 2, 5, 1000])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("p", [1.5, 1.7, 2.0, 2.5, 3.0])
    def test_matches_per_trial_loop(self, p, seed, trials):
        # All trials of one dimension are evaluated at once; the loop one
        # trial at a time is the reference, witnesses included, bitwise.
        report = check_vector_inequalities(p, trials=trials, seed=seed)
        assert report.to_json_record() == vector_inequalities_per_trial(
            p, trials, seed)


class TestTrialCounts:
    """A checker that draws nothing checks nothing, so counts below one
    are refused with the argument named."""

    @pytest.mark.parametrize("trials", [0, -3])
    def test_vector_inequalities(self, trials):
        with pytest.raises(ValueError, match="^trials must be at least 1"):
            check_vector_inequalities(2.0, trials=trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_strong_monotonicity(self, kernel_1d, trials):
        with pytest.raises(ValueError, match="^trials must be at least 1"):
            check_strong_monotonicity(kernel_1d, trials=trials)

    @pytest.mark.parametrize("kwargs,name", [
        ({"trials": 0}, "trials"),
        ({"trials": -3}, "trials"),
    ])
    def test_q_identity(self, kernel_1d, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            check_q_identity(kernel_1d, **kwargs)


class TestStrongMonotonicity:
    def test_identical_fields_vanish(self, kernel_1d):
        from fss import Field, pairing

        rng = np.random.default_rng(3)
        v = Field(rng.uniform(-1, 1, kernel_1d.interior_count), kernel_1d.grid)
        d = v - v
        assert pairing(v, d, kernel_1d) - pairing(v, d, kernel_1d) == 0.0

    def test_p2_constant_is_one(self, kernel_1d):
        report = check_strong_monotonicity(kernel_1d, trials=200, seed=42)
        assert abs(report.constants["C"] - 1.0) <= 1e-12

    @pytest.mark.parametrize("fixture", ["kernel_1d_p15", "kernel_1d_p3"])
    def test_positive_constant(self, fixture, request):
        kernel = request.getfixturevalue(fixture)
        report = check_strong_monotonicity(kernel, trials=1000, seed=42)
        assert report.passed
        assert report.constants["C"] > 0.0

    def test_seeded_reproducibility(self, kernel_1d_p3):
        a = check_strong_monotonicity(kernel_1d_p3, trials=100, seed=4)
        b = check_strong_monotonicity(kernel_1d_p3, trials=100, seed=4)
        assert a.to_json_record() == b.to_json_record()

    @pytest.mark.parametrize("fixture",
                             ["kernel_1d_p15", "kernel_1d", "kernel_1d_p3"])
    def test_matches_per_pair_loop(self, fixture, request):
        # The pairs are evaluated in blocks; the reference takes the
        # pairings one pair at a time, in the block's arithmetic: each
        # [v]^p as <A v, v> and each pairing as a vecdot.  The ratio is
        # then formed on arrays, as the block forms it (a power of an
        # array and of a scalar can round apart).  Bitwise equal at
        # p != 2; at p = 2 every ratio is 1 to rounding, so only the
        # constant is compared.
        kernel = request.getfixturevalue(fixture)
        p = kernel.params.p

        def block_pairing(u, v):
            return np.vecdot(apply_operator(u, kernel), v.values)

        num, den, sn1, sn2 = [], [], [], []
        for t in range(50):
            v1 = trial_field(kernel.grid, 4, 2 * t)
            v2 = trial_field(kernel.grid, 4, 2 * t + 1)
            d = v1 - v2
            num.append(block_pairing(v1, d) - block_pairing(v2, d))
            den.append(block_pairing(d, d))
            sn1.append(block_pairing(v1, v1))
            sn2.append(block_pairing(v2, v2))
        num, den, sn1, sn2 = map(np.array, (num, den, sn1, sn2))
        if p < 2.0:
            den = den ** (2.0 / p) / (sn1 + sn2) ** ((2.0 - p) / p)
        ratios = num / den
        report = check_strong_monotonicity(kernel, trials=50, seed=4)
        if p == 2.0:
            assert report.constants["C"] == pytest.approx(ratios.min(),
                                                          abs=1e-13)
        else:
            assert report.constants["C"] == ratios.min()
            assert report.witness["trial"] == int(np.argmin(ratios))


class TestQIdentity:
    def test_simple_cases(self):
        from fss.lemmas import _power_kernel_integral

        # a = 0, b = 1: the integral is int_0^1 t^(p-2) dt = 1/(p-1),
        # so the product side equals 1 for every p.
        for p in (2.0, 3.0):
            integral = _power_kernel_integral(0.0, 1.0, p)
            assert integral == pytest.approx(1.0 / (p - 1.0), rel=1e-10)
            assert (p - 1.0) * 1.0 * integral == pytest.approx(1.0, rel=1e-10)

    def test_equal_endpoints(self, kernel_1d):
        from fss import phi_p
        from fss.lemmas import _power_kernel_integral

        # a = b: both sides of the identity are zero for every p
        for p in (1.5, 2.0, 3.0):
            a = 0.7
            lhs = float(phi_p(np.array(a), p) - phi_p(np.array(a), p))
            rhs = (p - 1.0) * 0.0 * _power_kernel_integral(a, a, p)
            assert lhs == rhs == 0.0
        report = check_q_identity(kernel_1d, trials=10, seed=0)
        assert report.passed

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_passes(self, p, request):
        kernel = request.getfixturevalue(
            {1.5: "kernel_1d_p15", 2.0: "kernel_1d", 3.0: "kernel_1d_p3"}[p])
        report = check_q_identity(kernel, trials=1000, seed=42)
        assert report.passed

    def test_field_conclusion_nonnegative(self, kernel_1d_p3):
        report = check_q_identity(kernel_1d_p3, trials=50, seed=7)
        assert report.passed


class TestStampacchia:
    def test_zero_family(self):
        ks = np.linspace(1.0, 3.0, 20)
        gs = np.zeros(20)
        report = check_stampacchia((ks, gs), k0=1.0, C=1.0, theta=1.0, b=2.0)
        assert report.passed
        assert report.constants["d"] == 0.0

    def test_worked_example_d(self):
        # g(k0) = 1, C = 1, theta = 1, b = 2: d = 1 * 1 * 2^2 = 4.
        width = 0.9
        ks = np.concatenate([np.linspace(1.0, 1.0 + width, 10, endpoint=False),
                             np.linspace(1.0 + width, 6.0, 25)])
        gs = np.where(ks < 1.0 + width, 1.0, 0.0)
        report = check_stampacchia((ks, gs), k0=1.0, C=1.0, theta=1.0, b=2.0)
        assert report.passed
        assert report.constants["d"] == pytest.approx(4.0, rel=1e-12)

    def test_rejects_non_family(self):
        ks = np.linspace(1.0, 5.0, 10)
        gs = np.ones(10)  # never decays: violates the hypothesis
        with pytest.raises(FssError, match="not a Stampacchia family"):
            check_stampacchia((ks, gs), k0=1.0, C=1.0, theta=1.0, b=2.0)

    def test_rejects_increasing_g(self):
        ks = np.array([1.0, 2.0, 3.0])
        gs = np.array([0.1, 0.2, 0.0])
        with pytest.raises(FssError):
            check_stampacchia((ks, gs), k0=1.0, C=1.0, theta=1.0, b=2.0)

    def test_end_to_end_level_sets(self, kernel_1d, bump_weight):
        # Replay the sup-norm argument on a computed solution: its
        # level-set sizes satisfy the decay hypothesis with the constants
        # assembled from the weight norm and the embedding constant.
        alpha = 0.5
        chain = run_chain(bump_weight, alpha, kernel_1d, opts=ChainOptions())
        u = chain.u_alpha
        p = kernel_1d.params.p
        theta = 4.0
        s_theta = embedding_constant(theta, kernel_1d).value
        k0 = 0.25 * float(u.values.max())
        c_const = (norm_r(bump_weight, bump_weight.r) * s_theta
                   / k0**alpha) ** (theta / (p - 1.0))
        r_conj = bump_weight.r / (bump_weight.r - 1.0)
        b = (theta / r_conj - 1.0) / (p - 1.0)
        g0 = level_set_sizes(u, [k0])[0]
        d = (c_const * g0 ** (b - 1.0)
             * 2.0 ** (theta * b / (b - 1.0))) ** (1.0 / theta)
        ks = np.unique(np.concatenate([
            np.linspace(k0, k0 + 1.05 * d, 200),
            [k0 + d - d / 2.0**n for n in range(1, 30)],
        ]))
        gs = level_set_sizes(u, ks)
        report = check_stampacchia((ks, gs), k0=k0, C=c_const,
                                   theta=theta, b=b)
        assert report.passed
        # vanishing at the predicted threshold: no node exceeds k0 + d
        assert float(u.values.max()) <= k0 + d
