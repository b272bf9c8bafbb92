import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabpurity.diagonal import dephased_coefficients, eigenvalues, purity, twirl
from stabpurity.estimator import MeasurementRecord, estimate_entropy, min_purity
from stabpurity.oracle import master_equation_evolve
from stabpurity.pcg64 import PCG64
from stabpurity.simulator import (
    exact_entropy_dephased,
    exact_purity_dephased,
    exact_record,
    sample_measurements,
)
from stabpurity.stabilizer import GraphSpec

PATH2 = GraphSpec.preset("path-2")


class TestParams:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_measurements(np.ones(2), 0, 1)

    def test_int64_overflowing_shots_rejected(self):
        sample_measurements([0.5], 2**63 - 1, 1)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            sample_measurements([0.5], 2**63, 1)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 1.5, 2.0, "7", None], ids=repr)
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            sample_measurements([0.5], 10, seed)

    def test_numpy_integer_seed_accepted(self):
        assert sample_measurements([0.5], 10, np.int64(3)) == sample_measurements([0.5], 10, 3)

    def test_nan_expectation_rejected(self):
        with pytest.raises(ValueError):
            sample_measurements([0.5, math.nan], 10, 0)

    @pytest.mark.parametrize(
        "a_true",
        [np.array([0.3]), np.float64(0.3), 0.3, [0.3], (0.3,), np.array(0.3)],
        ids=["array", "numpy-scalar", "float", "list", "tuple", "0-d-array"],
    )
    def test_arrays_scalars_and_sequences_accepted(self, a_true):
        assert sample_measurements(a_true, 1000, 5) == sample_measurements([0.3], 1000, 5)


class TestDephasedCoefficients:
    def test_no_noise(self):
        c = dephased_coefficients(PATH2, 0.0)
        np.testing.assert_array_equal(c.values, np.ones(4))

    def test_reference_point(self):
        c = dephased_coefficients(PATH2, 0.1)
        expected = [1.0, math.exp(-0.1), math.exp(-0.1), math.exp(-0.2)]
        np.testing.assert_allclose(c.values, expected, rtol=0, atol=1e-15)

    def test_strong_noise_limit(self):
        c = dephased_coefficients(PATH2, 60.0)
        assert c.values[0] == 1.0
        assert np.abs(c.values[1:]).max() < 1e-20

    def test_matches_integrator(self):
        for n, gt in ((2, 0.1), (3, 0.5)):
            g = GraphSpec.preset(f"path-{n}")
            rho = master_equation_evolve(g, gamma=1.0, t=gt)
            closed = dephased_coefficients(g, gt)
            np.testing.assert_allclose(twirl(rho, g).values, closed.values, atol=1e-8)


class TestExactValues:
    def test_purity_reference_rows(self):
        assert round(exact_purity_dephased(PATH2, 0.1), 4) == 0.8269
        assert round(exact_purity_dephased(GraphSpec.preset("path-4"), 0.1), 4) == 0.6838

    def test_purity_no_noise(self):
        assert exact_purity_dephased(PATH2, 0.0) == 1.0

    def test_entropy_reference_rows(self):
        assert round(exact_entropy_dephased(PATH2, 0.1), 4) == 0.3827
        assert round(exact_entropy_dephased(GraphSpec.preset("path-3"), 0.1), 4) == 0.5740

    def test_entropy_no_noise(self):
        assert exact_entropy_dephased(PATH2, 0.0) == 0.0

    def test_parseval_agreement(self):
        for gamma_t in (0.23, 0.9):
            for n in (1, 4, 7, 10, 16):
                g = GraphSpec.preset(f"path-{n}")
                coeffs = dephased_coefficients(g, gamma_t)
                lam = eigenvalues(coeffs).values
                assert abs(exact_purity_dephased(g, gamma_t) - np.dot(lam, lam)) < 1e-12
                assert abs(exact_purity_dephased(g, gamma_t) - purity(coeffs)) < 1e-12

    def test_spectrum_factorizes(self):
        # product spectrum means the dephased state saturates the entropy maximum
        for gamma_t in (0.17, 0.6):
            decay = math.exp(-gamma_t)
            for n in (2, 3, 5, 16):
                g = GraphSpec.preset(f"ring-{n}")
                lam = eigenvalues(dephased_coefficients(g, gamma_t)).values
                product = np.array([1.0])
                for _ in range(n):
                    product = np.kron([(1 + decay) / 2, (1 - decay) / 2], product)
                np.testing.assert_allclose(lam, product, atol=1e-12)
                rec = exact_record(g, gamma_t)
                assert abs(exact_entropy_dephased(g, gamma_t) - estimate_entropy(rec).s_max) < 1e-12
                assert abs(-np.dot(product, np.log(product)) - exact_entropy_dephased(g, gamma_t)) < 1e-12

    def test_estimates_bound_exact_values(self):
        for n in (2, 3, 4):
            g = GraphSpec.preset(f"path-{n}")
            for gt in np.linspace(0.0, 0.5, 6):
                rec = exact_record(g, gt)
                assert min_purity(rec).p_min <= exact_purity_dephased(g, gt) + 1e-12
                assert estimate_entropy(rec).s_lower <= exact_entropy_dephased(g, gt) + 1e-12


class TestSampling:
    def test_perfect_expectations_sample_exactly(self):
        rec = sample_measurements(np.ones(3), 100, 1)
        np.testing.assert_array_equal(rec.a, 1.0)
        np.testing.assert_array_equal(rec.delta_a, 0.0)
        # counts 0 and shots give |ahat| = 1 exactly, also where shots rounds as a float
        for shots in (1, 3, 2**53 + 1, 2**63 - 1):
            rec = sample_measurements([1.0, -1.0], shots, 1)
            assert (rec.a, rec.delta_a) == ((1.0, -1.0), (0.0, 0.0))

    def test_large_sample_concentrates(self):
        rec = sample_measurements(np.array([0.9]), 10**6, 12345)
        bound = 5 * math.sqrt((1 - 0.81) / 10**6)
        assert abs(rec.a[0] - 0.9) < bound
        assert rec.delta_a[0] == pytest.approx(math.sqrt((1 - rec.a[0] ** 2) / 10**6))

    def test_reproducible(self):
        r1 = sample_measurements(np.array([0.5, -0.2]), 1000, 77)
        r2 = sample_measurements(np.array([0.5, -0.2]), 1000, 77)
        np.testing.assert_array_equal(r1.a, r2.a)
        np.testing.assert_array_equal(r1.delta_a, r2.delta_a)

    def test_unbiased_over_many_seeds(self):
        a_true, shots, runs = 0.9, 1000, 1000
        means = [
            sample_measurements(np.array([a_true]), shots, s).a[0]
            for s in range(runs)
        ]
        combined_se = math.sqrt((1 - a_true**2) / (shots * runs))
        assert abs(np.mean(means) - a_true) < 3 * combined_se

    def test_rejects_bad_expectations(self):
        with pytest.raises(ValueError):
            sample_measurements(np.array([1.5]), 10, 0)

    def test_record_feeds_estimator(self):
        g = GraphSpec.preset("path-3")
        rec = sample_measurements(dephased_coefficients(g, 0.1).values[1 << np.arange(3)], 10**5, 9)
        est = min_purity(rec)
        assert est.p_lower <= est.p_min <= est.p_upper
        assert isinstance(rec, MeasurementRecord)


#: Success probabilities on both sides of 1/2, the endpoints and 1/2 itself;
#: with the counts below each non-trivial one reaches both of numpy's branches
#: (inversion when min(p, 1 - p) * shots <= 30, BTPE otherwise).  Below 2**-53,
#: 1 - p rounds to 1, so 1e-18 and 5e-18 need numpy's log1p(-p) in the
#: inversion and its double-rounded counts in BTPE's final test.
STREAM_PS = [0.0, 1e-18, 5e-18, 1e-9, 0.003, 0.25, 0.3, 0.5, 0.7, 0.75, 0.997, 1 - 1e-9, 1 - 2**-53, 1.0]
#: 120 and 121 straddle the branch edge at p = 1/4 and 3/4, where p * 120 = 30
#: exactly; 2**62 and above wrap numpy's int64 arithmetic inside BTPE.
STREAM_SHOTS = [1, 120, 121, 100, 10**3, 10**4, 10**9, 2**62, 2**63 - 1]
#: 2**32 takes two entropy words; 2**130 + 12345 takes five, one more than
#: SeedSequence's pool, so it also runs the loop over the words beyond it.
STREAM_SEEDS = [0, 1, 2**32, 2**130 + 12345]


def _pure_python_draws(seed, shots, ps):
    rng = PCG64(seed)
    return [rng.binomial(shots, p) for p in ps]


class TestNumpyStream:
    """``pcg64`` reproduces ``numpy.random.default_rng(seed).binomial`` bit for bit."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_raw_outputs_match(self, seed):
        rng = PCG64(seed)
        assert [rng.next_uint64() for _ in range(64)] == np.random.PCG64(seed).random_raw(64).tolist()

    @pytest.mark.parametrize("shots", STREAM_SHOTS)
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_binomial_grid_matches(self, seed, shots):
        ps = STREAM_PS * 8
        want = np.random.default_rng(seed).binomial(shots, ps).tolist()
        assert _pure_python_draws(seed, shots, ps) == want

    @given(
        seed=st.integers(0, 2**160),
        shots=st.one_of(st.integers(1, 2000), st.integers(1, 2**63 - 1), st.integers(2**62, 2**63 - 1)),
        ps=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=8),
    )
    @settings(max_examples=400)
    def test_binomial_property(self, seed, shots, ps):
        want = np.random.default_rng(seed).binomial(shots, ps).tolist()
        assert _pure_python_draws(seed, shots, ps) == want

    @pytest.mark.parametrize("shots", [2**62 + 600, 5075793644044286925, 8280012408355330605])
    def test_huge_counts_with_small_means_match(self, shots):
        # means of 500 to 10^4 reach BTPE's final test, whose counts numpy
        # rounds to doubles before adding; with these low bits the rounding
        # order decides some draws
        ps = [p for mean in (500, 1500, 3466, 10**4) for p in (mean / shots, 1 - mean / shots)] * 50
        want = np.random.default_rng(5).binomial(shots, ps).tolist()
        assert _pure_python_draws(5, shots, ps) == want

    def test_zero_v_in_an_exponential_tail_is_rejected(self):
        # numpy's C code takes log(0) = -inf there and rejects the proposal;
        # u = 0.95 and 0.99 fall in the left and right tails of n = 1000,
        # p = 0.3, and u = 0 in the triangle, which accepts at once
        class Scripted(PCG64):
            def __init__(self, doubles):
                self.doubles = iter(doubles)

            def next_double(self):
                return next(self.doubles)

        triangle = Scripted([0.0, 0.5]).btpe(1000, 0.3)
        assert Scripted([0.95, 0.0, 0.0, 0.5]).btpe(1000, 0.3) == triangle
        assert Scripted([0.99, 0.0, 0.0, 0.5]).btpe(1000, 0.3) == triangle
        # a left-tail proposal below 0 (v = 1e-300) is rejected before the
        # acceptance product, whose a / i would divide by zero at i = 0
        assert Scripted([0.95, 1e-300, 0.0, 0.5]).btpe(1000, 0.3) == triangle
        # u = 1 - 2^-53 outlasts the search past ``bound``, which restarts it
        restarted = Scripted([1.0 - 2.0**-53, 0.5]).inversion(1000, 0.01)
        assert restarted == Scripted([0.5]).inversion(1000, 0.01)

    def test_sampled_record_matches_numpy_draws(self):
        a_true = np.array([0.9, -0.4, 0.0, 1.0, -1.0])
        shots, seed = 4321, 2**70 + 1
        plus = np.random.default_rng(seed).binomial(shots, (1.0 + a_true) / 2.0)
        a_hat = 2.0 * plus / shots - 1.0
        rec = sample_measurements(a_true, shots, seed)
        assert rec.a == tuple(a_hat.tolist())
        assert rec.delta_a == tuple(np.sqrt(np.maximum(0.0, 1.0 - a_hat**2) / shots).tolist())
