import math

import numpy as np
import pytest
from hypothesis import given, settings

from stabpurity import (
    DENSE_CAP,
    CertificateInvalid,
    DenseCapExceeded,
    GraphSpec,
    InfeasibleRecord,
    MeasurementRecord,
    binary_entropy,
    closed_form_is_optimal,
    eigenvalues,
    entropy_lower_bound,
    entropy_max,
    estimate_entropy,
    kkt_certificate,
    max_entropy_numeric,
    min_purity,
    min_purity_coefficients,
    normalize_signs,
    pairwise_sums_ok,
    purity,
    purity_error_bars,
    qp_min_purity,
)
from support import dense_kkt, feasible_record, feasible_records, optimal_record, suboptimal_record

A01 = math.exp(-0.1)


def record(*a, delta=None):
    return MeasurementRecord(len(a), np.array(a, float), delta)


class TestRecordValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            record(1.2)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            record(math.nan, 0.5)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            record(0.5, delta=[-0.1])
        with pytest.raises(ValueError, match="nonnegative"):
            record(0.5, 0.5, delta=[0.01, math.nan])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord(2, np.array([0.5]))

    def test_shots_validation(self):
        with pytest.raises(ValueError, match="shots"):
            MeasurementRecord(1, np.array([0.5]), shots=np.array([0]))


class TestNormalizeSigns:
    def test_flips_negative_entries(self):
        fixed, signs = normalize_signs(record(0.9, -0.8))
        np.testing.assert_array_equal(fixed.a, [0.9, 0.8])
        assert signs == "01"

    def test_positive_record_unchanged(self):
        rec = record(0.5, 0.5)
        fixed, signs = normalize_signs(rec)
        assert fixed is rec
        assert signs == "00"

    def test_all_negative(self):
        fixed, signs = normalize_signs(record(-1.0, -1.0))
        np.testing.assert_array_equal(fixed.a, [1.0, 1.0])
        assert signs == "11"

    def test_unnormalized_record_rejected_downstream(self):
        with pytest.raises(ValueError, match="normalize_signs"):
            min_purity(record(-0.5, 0.9))


class TestCoefficients:
    def test_two_qubit_form(self):
        a1, a2 = 0.85, 0.9
        c = min_purity_coefficients(record(a1, a2))
        np.testing.assert_allclose(c.values, [1.0, a1, a2, a1 + a2 - 1.0])

    def test_perfect_record_gives_pure_state(self):
        c = min_purity_coefficients(record(1.0, 1.0, 1.0))
        np.testing.assert_array_equal(c.values, np.ones(8))

    def test_direct_evaluation_n3(self):
        rec = record(1.0, 1.0, 0.0)
        c = min_purity_coefficients(rec)
        assert c[0b111] == 0.0
        assert c[0b011] == 1.0
        assert c[0b100] == 0.0
        assert c[0b101] == 0.0
        idx = np.arange(8)
        direct = [
            sum(((i >> k) & 1) * rec.a[k] for k in range(3)) - int(i).bit_count() + 1
            for i in idx
        ]
        np.testing.assert_allclose(c.values, direct)
        # numeric QP agrees with the purity of this candidate
        assert abs(qp_min_purity(rec).objective - purity(c)) < 1e-6

    def test_single_generator_entries_reproduce_record(self):
        rec = record(0.8, 0.9, 0.75, 0.95)
        c = min_purity_coefficients(rec)
        np.testing.assert_allclose(c.generator_expectations(), rec.a)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRecord):
            min_purity_coefficients(record(0.2, 0.2, 0.2))

    def test_cap_enforced(self):
        rec = MeasurementRecord(DENSE_CAP + 1, np.full(DENSE_CAP + 1, 0.99))
        with pytest.raises(DenseCapExceeded):
            min_purity_coefficients(rec)


class TestMinPurity:
    def test_reference_values(self):
        assert round(min_purity(record(A01, A01)).p_min, 4) == 0.8233
        assert round(min_purity(record(*[A01] * 4)).p_min, 4) == 0.6646

    def test_perfect_record(self):
        est = min_purity(record(1.0, 1.0, 1.0))
        assert est.p_min == pytest.approx(1.0)
        assert est.lambda0 == pytest.approx(1.0)
        assert est.spectrum_summary.singles == (0.0, 0.0, 0.0)
        assert est.spectrum_summary.zero_multiplicity == 4
        assert est.warnings == ()

    def test_matches_numeric_solver(self):
        rec = record(0.9, 0.9)
        assert abs(min_purity(rec).p_min - qp_min_purity(rec).objective) < 1e-6

    def test_closed_form_spectrum_consistency(self):
        # O(n) spectrum equals the transform of the materialized coefficients
        rng = np.random.default_rng(21)
        for n in (1, 2, 4, 7, 10):
            rec = feasible_record(rng, n)
            est = min_purity(rec)
            lam = np.zeros(1 << n)
            lam[0] = est.lambda0
            for k in range(n):
                lam[1 << k] = est.spectrum_summary.singles[k]
            full = eigenvalues(min_purity_coefficients(rec)).values
            np.testing.assert_allclose(full, lam, atol=1e-12)
            assert abs(est.p_min - np.dot(full, full)) < 1e-12

    def test_bounds_bracket_estimate(self):
        rng = np.random.default_rng(22)
        for n in (1, 2, 3, 5):
            est = min_purity(optimal_record(rng, n))
            assert 0.5**n <= est.p_min <= 1.0
            assert est.p_lower <= est.p_min <= est.p_upper

    def test_infeasible(self):
        with pytest.raises(InfeasibleRecord, match="lambda_0"):
            min_purity(record(0.2, 0.2, 0.2))

    def test_boundary_feasible(self):
        est = min_purity(record(1.0, 0.0, 0.0))  # lambda0 exactly 0
        assert est.lambda0 == 0.0
        assert est.p_min == pytest.approx(0.5)

    def test_monotone_in_each_expectation_on_optimality_domain(self):
        # outside that domain monotonicity provably fails, e.g. (0.9, 0.0) -> (0.9, 0.05)
        grid = np.linspace(0.7, 1.0, 7)
        for n in (2, 3):
            for base in grid:
                a = np.full(n, base)
                p0 = min_purity(MeasurementRecord(n, a)).p_min
                for k in range(n):
                    bumped = a.copy()
                    bumped[k] = min(1.0, bumped[k] + 0.03)
                    assert min_purity(MeasurementRecord(n, bumped)).p_min >= p0 - 1e-12

    def test_suboptimal_band_counterexample(self):
        # closed form decreases in a_2 here, and exceeds the true minimum
        down = min_purity(record(0.9, 0.0)).p_min
        up = min_purity(record(0.9, 0.05)).p_min
        assert up < down
        assert qp_min_purity(record(0.9, 0.0)).objective < down - 1e-6


class TestErrorBars:
    def test_reference_shift(self):
        lo, hi = purity_error_bars(record(0.9, 0.9, delta=[0.01, 0.01]))
        assert lo == pytest.approx(0.79815, abs=1e-12)
        assert hi == pytest.approx(0.83215, abs=1e-12)

    def test_zero_uncertainty_collapses(self):
        rec = record(0.8, 0.7)
        lo, hi = purity_error_bars(rec)
        assert lo == hi == min_purity(rec).p_min

    def test_upper_shift_clipped(self):
        lo, hi = purity_error_bars(record(1.0, 1.0, delta=[0.05, 0.05]))
        assert hi == pytest.approx(1.0)
        assert lo < 1.0

    def test_lower_shift_can_be_infeasible(self):
        rec = record(0.4, 0.4, 0.4, delta=[0.2, 0.2, 0.2])
        lo, hi = purity_error_bars(rec)
        assert lo is None
        assert hi is not None
        est = min_purity(rec)
        assert est.p_lower is None
        assert any("no lower error bar" in w for w in est.warnings)

    def test_cross_checked_against_numeric_solver(self):
        rec = record(0.9, 0.9, delta=[0.01, 0.01])
        lo, hi = purity_error_bars(rec)
        assert abs(qp_min_purity(record(0.89, 0.89)).objective - lo) < 1e-6
        assert abs(qp_min_purity(record(0.91, 0.91)).objective - hi) < 1e-6


class TestCertificate:
    def test_two_qubit_reference(self):
        rec = record(0.9, 0.9)
        cert = kkt_certificate(rec)
        assert cert.valid
        mu, _, _ = dense_kkt(rec, cert.nu)
        assert mu[0] == pytest.approx(0.0, abs=1e-12)
        assert mu[1] == pytest.approx(0.0, abs=1e-12)
        assert mu[2] == pytest.approx(0.0, abs=1e-12)
        assert mu[3] == pytest.approx(2 * (0.9 + 0.9 - 1.0), abs=1e-12)
        assert cert.min_mu == 0.0

    def test_two_qubit_multiplier_formulas_exact(self):
        # dyadic inputs make both evaluation orders exact in floating point
        a1, a2 = 0.75, 0.5
        cert = kkt_certificate(record(a1, a2))
        lam00 = (a1 + a2) / 2
        assert cert.nu[1] == 0.5 * (1 - 2 * a1 - a2)
        assert cert.nu[2] == 0.5 * (1 - 2 * a2 - a1)
        assert cert.nu[0] == -2 * lam00 - cert.nu[1] - cert.nu[2]
        assert cert.nu[0] == 0.5 * (a1 + a2) - 1.0

    def test_perfect_record(self):
        cert = kkt_certificate(record(1.0, 1.0, 1.0))
        assert cert.valid
        assert cert.min_mu >= -1e-9

    def test_random_records_in_optimality_domain(self):
        rng = np.random.default_rng(30)
        for trial in range(60):
            n = 2 + trial % 3
            rec = optimal_record(rng, n)
            cert = kkt_certificate(rec)
            assert cert.valid
            _, stationarity, complementarity = dense_kkt(rec, cert.nu)
            assert stationarity <= 1e-9
            assert complementarity <= 1e-9

    def test_detects_suboptimal_closed_form(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            rec = suboptimal_record(rng, n)
            with pytest.raises(CertificateInvalid) as err:
                kkt_certificate(rec)
            assert err.value.condition == "mu >= 0"
            assert err.value.certificate is not None
            assert not err.value.certificate.valid
            # and the numeric optimum really is below the closed form
            gap = min_purity(rec).p_min - qp_min_purity(rec).objective
            assert gap > 1e-9
            assert any("not optimal" in w for w in min_purity(rec).warnings)

    def test_optimality_condition_matches_certificate(self):
        rng = np.random.default_rng(32)
        for trial in range(120):
            n = 2 + trial % 4
            rec = feasible_record(rng, n)
            expected = closed_form_is_optimal(rec)
            try:
                kkt_certificate(rec)
                assert expected
            except CertificateInvalid:
                assert not expected

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleRecord):
            kkt_certificate(record(0.1, 0.1, 0.1))

    def test_certified_above_dense_cap(self):
        # nothing of size 2^n is built: at n = 10^5 it could not be
        rng = np.random.default_rng(33)
        for n in (DENSE_CAP + 1, 200, 10**5):
            rec = optimal_record(rng, n)
            assert kkt_certificate(rec).valid == closed_form_is_optimal(rec) is True
            low = rng.choice(n, size=2, replace=False)
            a = np.ones(n)
            a[low] = 0.3  # lambda_0 = 0.3 < 0.35 + 0.35
            rec = MeasurementRecord(n, a)
            with pytest.raises(CertificateInvalid) as err:
                kkt_certificate(rec)
            assert err.value.certificate.valid == closed_form_is_optimal(rec) is False
            assert err.value.index == (1 << int(low[0])) | (1 << int(low[1]))
            assert err.value.value == pytest.approx(2 * (0.3 - 0.7))

    @given(feasible_records(max_n=DENSE_CAP))
    @settings(max_examples=300)
    def test_closed_form_matches_dense_multipliers(self, rec):
        try:
            cert, index = kkt_certificate(rec), None
        except CertificateInvalid as exc:
            cert, index = exc.certificate, exc.index
        mu, stationarity, complementarity = dense_kkt(rec, cert.nu)
        assert abs(cert.min_mu - mu.min()) <= 1e-12
        assert stationarity <= 1e-9 and complementarity <= 1e-9
        assert cert.valid == closed_form_is_optimal(rec)
        assert (index is None) == cert.valid
        if index is not None:
            assert abs(mu[index] - cert.min_mu) <= 1e-12


class TestPairwiseCheck:
    def test_all_pairs_when_no_graph(self):
        assert pairwise_sums_ok(record(0.6, 0.6))
        assert not pairwise_sums_ok(record(0.6, 0.3))

    def test_graph_restricts_to_edges(self):
        rec = record(0.9, 0.3, 0.9)
        path = GraphSpec.from_edges(3, [(0, 1), (1, 2)])
        assert pairwise_sums_ok(rec, path)  # 0.9 + 0.3 >= 1 on both edges
        assert not pairwise_sums_ok(record(0.6, 0.3, 0.9), path)

    def test_warning_issued(self):
        est = min_purity(record(0.9, 0.45, 0.45))  # 0.45 + 0.45 < 1, still feasible
        assert any("sum below 1" in w for w in est.warnings)


class TestEntropy:
    def test_lower_bound_reference_values(self):
        assert round(entropy_lower_bound(record(A01, A01)), 4) == 0.3803
        assert round(entropy_lower_bound(record(*[A01] * 4)), 4) == 0.7505

    def test_lower_bound_pure(self):
        assert entropy_lower_bound(record(1.0, 1.0)) == 0.0

    def test_lower_bound_infeasible(self):
        with pytest.raises(InfeasibleRecord):
            entropy_lower_bound(record(0.2, 0.2, 0.2))

    def test_max_entropy_limits(self):
        assert entropy_max(record(0.0, 0.0, 0.0)) == pytest.approx(3 * math.log(2))
        assert entropy_max(record(1.0, 1.0)) == 0.0

    def test_max_entropy_reference_value(self):
        # equals the exact entropy of the dephased state (product spectrum)
        assert round(entropy_max(record(A01, A01)), 4) == 0.3827

    def test_bound_ordering(self):
        rng = np.random.default_rng(40)
        for trial in range(300):
            n = 1 + trial % 6
            rec = feasible_record(rng, n)
            assert entropy_lower_bound(rec) <= entropy_max(rec) + 1e-12

    def test_equality_cases(self):
        # n = 1: the data pins the state, both bounds coincide
        rng = np.random.default_rng(41)
        for a in rng.uniform(0.0, 1.0, size=10):
            rec = record(a)
            assert entropy_lower_bound(rec) == pytest.approx(entropy_max(rec), abs=1e-12)
            assert entropy_max(rec) == pytest.approx(binary_entropy((1 + a) / 2))
        assert entropy_lower_bound(record(1.0, 1.0)) == entropy_max(record(1.0, 1.0)) == 0.0

    def test_strict_inequality_for_imperfect_multiqubit_records(self):
        rng = np.random.default_rng(42)
        for n in (2, 4):
            rec = optimal_record(rng, n)
            if np.all(rec.a < 1.0):
                assert entropy_lower_bound(rec) < entropy_max(rec) - 1e-9

    def test_max_entropy_matches_numeric_solver(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            n = 1 + trial % 4
            rec = feasible_record(rng, n)
            _, s_numeric = max_entropy_numeric(rec)
            assert abs(entropy_max(rec) - s_numeric) < 1e-6

    def test_estimate_entropy_feasible(self):
        est = estimate_entropy(record(A01, A01))
        assert est.s_lower == pytest.approx(entropy_lower_bound(record(A01, A01)))
        assert 0.0 <= est.s_lower <= est.s_max <= 2 * math.log(2)

    def test_estimate_entropy_infeasible(self):
        est = estimate_entropy(record(0.2, 0.2, 0.2))
        assert est.s_lower is None
        assert est.s_max > 0.0


class TestSingleGenerator:
    def test_closed_forms(self):
        # the constraint set is a single state for n = 1
        for a in (0.0, 0.3, 0.9, 1.0):
            rec = record(a)
            assert min_purity(rec).p_min == pytest.approx((1 + a * a) / 2, abs=1e-12)
            h = binary_entropy((1 + a) / 2)
            assert entropy_lower_bound(rec) == pytest.approx(h, abs=1e-12)
            assert entropy_max(rec) == pytest.approx(h, abs=1e-12)
            assert closed_form_is_optimal(rec)
