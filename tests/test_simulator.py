import math

import numpy as np
import pytest

from stabpurity import (
    GraphSpec,
    MeasurementRecord,
    dephased_coefficients,
    eigenvalues,
    entropy,
    entropy_lower_bound,
    entropy_max,
    exact_entropy_dephased,
    exact_purity_dephased,
    exact_record,
    master_equation_evolve,
    min_purity,
    purity,
    sample_measurements,
    twirl,
)

PATH2 = GraphSpec.preset("path-2")


class TestParams:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_measurements(np.ones(2), 0, 1)


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
        assert c[0] == 1.0
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
                assert abs(exact_entropy_dephased(g, gamma_t) - entropy_max(rec)) < 1e-12
                assert abs(entropy(eigenvalues(dephased_coefficients(g, gamma_t)))
                           - exact_entropy_dephased(g, gamma_t)) < 1e-12

    def test_estimates_bound_exact_values(self):
        for n in (2, 3, 4):
            g = GraphSpec.preset(f"path-{n}")
            for gt in np.linspace(0.0, 0.5, 6):
                rec = exact_record(g, gt)
                assert min_purity(rec).p_min <= exact_purity_dephased(g, gt) + 1e-12
                assert entropy_lower_bound(rec) <= exact_entropy_dephased(g, gt) + 1e-12


class TestSampling:
    def test_perfect_expectations_sample_exactly(self):
        rec = sample_measurements(np.ones(3), 100, 1)
        np.testing.assert_array_equal(rec.a, 1.0)
        np.testing.assert_array_equal(rec.delta_a, 0.0)

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
