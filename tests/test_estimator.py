import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabpurity.cli import build_report
from stabpurity.diagonal import CoeffVector, Spectrum, coefficients, eigenvalues, purity
from stabpurity.estimator import (
    InfeasibleRecord,
    MeasurementRecord,
    binary_entropy,
    closed_form_is_optimal,
    estimate_entropy,
    kkt_certificate,
    min_purity,
    normalize_signs,
)
from stabpurity.oracle import max_entropy_numeric, qp_min_purity
from stabpurity.stabilizer import DENSE_CAP, GraphSpec
from support import (
    boundary_records,
    dense_kkt,
    exact_verdicts,
    feasibility_edge_records,
    feasible_record,
    feasible_records,
    optimal_record,
    pair_edge_records,
    suboptimal_record,
)

A01 = math.exp(-0.1)


def record(*a, delta=None):
    return MeasurementRecord(len(a), np.array(a, float), delta)


def reported_spectrum(rec) -> np.ndarray:
    """The 2^n spectrum min_purity reports: lambda0, the singles, zeros elsewhere."""
    est = min_purity(rec)
    lam = np.zeros(1 << rec.n)
    lam[0] = est.lambda0
    lam[1 << np.arange(rec.n)] = est.singles
    return lam


def reported_coefficients(rec):
    """Coefficients of the reported least-purity state, by the inverse transform."""
    return coefficients(Spectrum(rec.n, reported_spectrum(rec)))


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
        with pytest.raises(ValueError):
            MeasurementRecord(2, [0.5, 0.5], [0.1])
        with pytest.raises(ValueError, match="at least one generator"):
            MeasurementRecord(0, [])

    def test_non_integer_count_rejected(self):
        # as GraphSpec does: a bool is not a count, and 2.0 is not an int
        for n, a, delta in ((True, [0.9], None), (2.0, [0.9, 0.9], None), (2.0, [0.9, 0.9], [0.1, 0.1])):
            with pytest.raises(ValueError, match="must be an integer"):
                MeasurementRecord(n, a, delta)

    def test_any_sequence_accepted_and_stored_as_tuples(self):
        want = MeasurementRecord(3, (0.5, 1.0, -0.25), (0.0, 0.1, 0.0))
        for a, delta in (
            ([0.5, 1, -0.25], [0, 0.1, 0]),
            (np.array([0.5, 1.0, -0.25]), np.array([0.0, 0.1, 0.0])),
            (iter([0.5, 1.0, -0.25]), (x for x in (0.0, 0.1, 0.0))),
        ):
            rec = MeasurementRecord(3, a, delta)
            assert rec == want
            assert all(type(x) is float for x in (*rec.a, *rec.delta_a))
        assert MeasurementRecord(1, np.float64(0.5)).a == (0.5,)
        assert MeasurementRecord(2, [0.5, 0.5]).delta_a == (0.0, 0.0)
        with pytest.raises(ValueError):
            MeasurementRecord(2, [[0.5, 0.5], [0.5, 0.5]])


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
        c = reported_coefficients(record(a1, a2))
        np.testing.assert_allclose(c.values, [1.0, a1, a2, a1 + a2 - 1.0])

    def test_perfect_record_gives_pure_state(self):
        c = reported_coefficients(record(1.0, 1.0, 1.0))
        np.testing.assert_array_equal(c.values, np.ones(8))

    def test_direct_evaluation_n3(self):
        rec = record(1.0, 1.0, 0.0)
        c = reported_coefficients(rec)
        assert c.values[0b111] == 0.0
        assert c.values[0b011] == 1.0
        assert c.values[0b100] == 0.0
        assert c.values[0b101] == 0.0
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
        c = reported_coefficients(rec)
        np.testing.assert_allclose(c.values[1 << np.arange(4)], rec.a)


class TestMinPurity:
    def test_reference_values(self):
        assert round(min_purity(record(A01, A01)).p_min, 4) == 0.8233
        assert round(min_purity(record(*[A01] * 4)).p_min, 4) == 0.6646

    def test_perfect_record(self):
        est = min_purity(record(1.0, 1.0, 1.0))
        assert est.p_min == pytest.approx(1.0)
        assert est.lambda0 == pytest.approx(1.0)
        assert est.singles == (0.0, 0.0, 0.0)
        assert est.warnings == ()

    def test_matches_numeric_solver(self):
        rec = record(0.9, 0.9)
        assert abs(min_purity(rec).p_min - qp_min_purity(rec).objective) < 1e-6

    def test_closed_form_spectrum_consistency(self):
        # O(n) spectrum equals the transform of c[i] = sum_k i_k a_k - popcount(i) + 1
        rng = np.random.default_rng(21)
        for n in (1, 2, 4, 7, 10):
            rec = feasible_record(rng, n)
            bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            c = bits @ np.array(rec.a) - bits.sum(axis=1) + 1.0
            full = eigenvalues(CoeffVector(n, c)).values
            np.testing.assert_allclose(full, reported_spectrum(rec), atol=1e-12)
            assert abs(min_purity(rec).p_min - np.dot(full, full)) < 1e-12

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


def _ulps(x: float, exact: Fraction) -> Fraction:
    """Distance of x from the exact value, in units of the exact value's last place."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


def _rounding_records(rng, n: int, count: int) -> list:
    """Feasible records whose exact lambda_0 runs from about 1 down to 0.

    Deficits are rescaled into budgets 2 (1 - 10^-u) with u up to 16, so the
    sum of a cancels against n - 2 in up to every digit; one record has
    lambda_0 = 0 exactly.
    """
    out = [[0.0, 0.0, *[1.0] * (n - 2)] if n >= 2 else [0.0]]
    while len(out) < count:
        d = rng.uniform(0.0, 1.0, size=n)
        d *= 2.0 * (1.0 - 10.0 ** -rng.uniform(0.1, 16.0)) / d.sum()
        out.append((1.0 - np.minimum(d, 1.0)).tolist())
    return out


class TestCorrectRounding:
    """lambda_0 and p_min against exact rational arithmetic on the record's floats."""

    @pytest.mark.parametrize("n, count", [(3, 200), (10, 200), (50, 100), (1000, 20)])
    def test_against_fractions(self, n, count):
        rng = np.random.default_rng(50 + n)
        checked = 0
        for a in _rounding_records(rng, n, count):
            exact_a = [Fraction(x) for x in a]
            lam0 = (2 - n + sum(exact_a)) / 2
            if lam0 < 0:  # rescaling rounded the budget just past 2
                continue
            p_min = lam0 * lam0 + sum(((1 - x) / 2) ** 2 for x in exact_a)
            est = min_purity(MeasurementRecord(n, a))
            assert _ulps(est.lambda0, lam0) <= Fraction(1, 2)  # correctly rounded
            assert _ulps(est.p_min, p_min) <= 4
            checked += 1
        assert checked >= count * 3 // 4

    @given(st.data())
    @settings(max_examples=300)
    def test_permutation_leaves_every_bound_bit_identical(self, data):
        rec = data.draw(feasible_records(max_n=12))
        delta = data.draw(st.lists(st.floats(0.0, 0.1), min_size=rec.n, max_size=rec.n))
        perm = data.draw(st.permutations(range(rec.n)))

        def bounds(a, delta_a):
            r = MeasurementRecord(rec.n, a, delta_a)
            pur, ent = min_purity(r), estimate_entropy(r)
            values = (pur.p_min, pur.p_lower, pur.p_upper, pur.lambda0, ent.s_lower, ent.s_max)
            return tuple(None if v is None else v.hex() for v in values)

        a = [float(x) for x in rec.a]
        assert bounds(a, delta) == bounds([a[i] for i in perm], [delta[i] for i in perm])


class TestErrorBars:
    def test_reference_shift(self):
        est = min_purity(record(0.9, 0.9, delta=[0.01, 0.01]))
        assert est.p_lower == pytest.approx(0.79815, abs=1e-12)
        assert est.p_upper == pytest.approx(0.83215, abs=1e-12)

    def test_zero_uncertainty_collapses(self):
        est = min_purity(record(0.8, 0.7))
        assert est.p_lower == est.p_upper == est.p_min

    def test_upper_shift_clipped(self):
        est = min_purity(record(1.0, 1.0, delta=[0.05, 0.05]))
        assert est.p_upper == pytest.approx(1.0)
        assert est.p_lower < 1.0

    def test_lower_shift_can_be_infeasible(self):
        est = min_purity(record(0.4, 0.4, 0.4, delta=[0.2, 0.2, 0.2]))
        assert est.p_lower is None
        assert est.p_upper is not None
        assert any("no lower error bar" in w for w in est.warnings)

    def test_cross_checked_against_numeric_solver(self):
        est = min_purity(record(0.9, 0.9, delta=[0.01, 0.01]))
        assert abs(qp_min_purity(record(0.89, 0.89)).objective - est.p_lower) < 1e-6
        assert abs(qp_min_purity(record(0.91, 0.91)).objective - est.p_upper) < 1e-6


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
        assert cert.nu == (1.0, -1.0, -1.0, -1.0)  # -2 lambda_0 - sum(s_k - lambda_0)
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
            cert = kkt_certificate(rec)
            assert cert.valid is False
            assert cert.min_mu < 0.0
            # and the numeric optimum really is below the closed form
            gap = min_purity(rec).p_min - qp_min_purity(rec).objective
            assert gap > 1e-9
            assert any("not optimal" in w for w in min_purity(rec).warnings)

    def test_optimality_condition_matches_certificate(self):
        rng = np.random.default_rng(32)
        for trial in range(120):
            n = 2 + trial % 4
            rec = feasible_record(rng, n)
            assert kkt_certificate(rec).valid == closed_form_is_optimal(rec)

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
            cert = kkt_certificate(rec)
            assert cert.valid == closed_form_is_optimal(rec) is False
            assert cert.min_mu == pytest.approx(2 * (0.3 - 0.7))

    @given(feasible_records(max_n=DENSE_CAP))
    @settings(max_examples=300)
    def test_closed_form_matches_dense_multipliers(self, rec):
        cert = kkt_certificate(rec)
        mu, stationarity, complementarity = dense_kkt(rec, cert.nu)
        assert abs(cert.min_mu - mu.min()) <= 1e-12
        assert stationarity <= 1e-9 and complementarity <= 1e-9
        assert cert.valid == closed_form_is_optimal(rec)

    @given(boundary_records(max_n=DENSE_CAP, width=1e-9))
    @example(MeasurementRecord(2, [0.5, 0.4999999999]))  # margin -2e-10
    @settings(max_examples=300)
    def test_verdict_and_warning_agree_at_the_optimality_boundary(self, rec):
        assert kkt_certificate(rec).valid == closed_form_is_optimal(rec)
        report = build_report(rec, None, {}, "")
        warned = any("not optimal" in w for w in report["warnings"])
        assert warned == (report["certificate"]["valid"] is False)


def pairwise_warned(rec, graph=None) -> bool:
    return any("sum below 1" in w for w in min_purity(rec, graph).warnings)


class TestPairwiseCheck:
    def test_all_pairs_when_no_graph(self):
        assert not pairwise_warned(record(0.6, 0.6))
        assert pairwise_warned(record(0.6, 0.3))

    def test_graph_restricts_to_edges(self):
        rec = record(0.9, 0.3, 0.9)
        path = GraphSpec(3, [(0, 1), (1, 2)])
        assert not pairwise_warned(rec, path)  # 0.9 + 0.3 >= 1 on both edges
        assert pairwise_warned(record(0.6, 0.3, 0.9), path)
        with pytest.raises(ValueError, match="disagree on generator count"):
            min_purity(rec, GraphSpec.preset("path-2"))

    def test_warning_issued(self):
        est = min_purity(record(0.9, 0.45, 0.45))  # 0.45 + 0.45 < 1, still feasible
        assert any("sum below 1" in w for w in est.warnings)


class TestExactGates:
    """Each gate is the exact sign of one correctly rounded sum: no slack either way."""

    @given(st.one_of(feasibility_edge_records(12), boundary_records(12, 1e-15), pair_edge_records(12)))
    @settings(max_examples=1000)
    def test_verdicts_match_exact_arithmetic(self, rec):
        feasible, optimal, pairs_ok = exact_verdicts(rec)
        assert closed_form_is_optimal(rec) == optimal
        assert (estimate_entropy(rec).s_lower is not None) == feasible
        if not feasible:
            with pytest.raises(InfeasibleRecord):
                min_purity(rec)
            return
        path = GraphSpec(rec.n, [(k, k + 1) for k in range(rec.n - 1)])
        assert pairwise_warned(rec) != pairs_ok
        assert pairwise_warned(rec, path) != exact_verdicts(rec, path)[2]

    def test_feasibility_gate(self):
        below = record(0.19999999999999996, 0.19999999999999996, 0.6)  # exact lambda_0 = -2^-54
        with pytest.raises(InfeasibleRecord) as info:
            min_purity(below)
        assert info.value.lambda0 == -(2.0**-54)
        # this sum(a) rounds to n - 2, so the message states the shortfall instead of "2.0 < 2"
        with pytest.raises(InfeasibleRecord, match=r"^sum\(a\) = 2\.0 is 5\.55112e-17 below n - 2 = 2:"):
            min_purity(record(0.5, 0.5, 0.5, 0.49999999999999994))
        assert estimate_entropy(below).s_lower is None
        on = record(0.5, 0.5, 0.5, 0.5)  # the lambda0-zero golden: exactly on the gate
        assert min_purity(on).lambda0 == 0.0
        assert estimate_entropy(on).s_lower is not None

    def test_pair_whose_float_sum_rounds_to_one_warns(self):
        rec = record(0.5, 0.49999999999999994)  # exact sum 1 - 2^-54
        assert pairwise_warned(rec)
        assert pairwise_warned(rec, GraphSpec.preset("path-2"))


class TestEntropy:
    def test_lower_bound_reference_values(self):
        assert round(estimate_entropy(record(A01, A01)).s_lower, 4) == 0.3803
        assert round(estimate_entropy(record(*[A01] * 4)).s_lower, 4) == 0.7505

    def test_lower_bound_pure(self):
        assert estimate_entropy(record(1.0, 1.0)).s_lower == 0.0

    def test_lower_bound_infeasible(self):
        assert estimate_entropy(record(0.2, 0.2, 0.2)).s_lower is None

    def test_max_entropy_limits(self):
        assert estimate_entropy(record(0.0, 0.0, 0.0)).s_max == pytest.approx(3 * math.log(2))
        assert estimate_entropy(record(1.0, 1.0)).s_max == 0.0

    def test_max_entropy_reference_value(self):
        # equals the exact entropy of the dephased state (product spectrum)
        assert round(estimate_entropy(record(A01, A01)).s_max, 4) == 0.3827

    def test_bound_ordering(self):
        rng = np.random.default_rng(40)
        for trial in range(300):
            n = 1 + trial % 6
            rec = feasible_record(rng, n)
            ent = estimate_entropy(rec)
            assert ent.s_lower <= ent.s_max + 1e-12

    def test_equality_cases(self):
        # n = 1: the data pins the state, both bounds coincide
        rng = np.random.default_rng(41)
        for a in rng.uniform(0.0, 1.0, size=10):
            ent = estimate_entropy(record(a))
            assert ent.s_lower == pytest.approx(ent.s_max, abs=1e-12)
            assert ent.s_max == pytest.approx(binary_entropy((1 + a) / 2))
        ent = estimate_entropy(record(1.0, 1.0))
        assert ent.s_lower == ent.s_max == 0.0

    def test_strict_inequality_for_imperfect_multiqubit_records(self):
        rng = np.random.default_rng(42)
        for n in (2, 4):
            rec = optimal_record(rng, n)
            if np.all(np.asarray(rec.a) < 1.0):
                ent = estimate_entropy(rec)
                assert ent.s_lower < ent.s_max - 1e-9

    def test_max_entropy_matches_numeric_solver(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            n = 1 + trial % 4
            rec = feasible_record(rng, n)
            _, s_numeric = max_entropy_numeric(rec)
            assert abs(estimate_entropy(rec).s_max - s_numeric) < 1e-6

    def test_estimate_entropy_feasible(self):
        est = estimate_entropy(record(A01, A01))
        pur = min_purity(record(A01, A01))  # s_lower is the entropy of p_min's spectrum
        assert est.s_lower == pytest.approx(-sum(x * math.log(x) for x in (pur.lambda0, *pur.singles)))
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
            ent = estimate_entropy(rec)
            assert ent.s_lower == pytest.approx(h, abs=1e-12)
            assert ent.s_max == pytest.approx(h, abs=1e-12)
            assert closed_form_is_optimal(rec)


class TestValueTypes:
    """The three results are named tuples with the fields, order and repr their
    dataclass forms had; the validated types stay dataclasses."""

    @staticmethod
    def results() -> list:
        rec = record(0.5, 0.5)
        return [kkt_certificate(rec), estimate_entropy(rec), qp_min_purity(rec)]

    def test_fields_in_order(self):
        cert, ent, sol = self.results()
        assert cert._fields == ("nu", "min_mu", "valid")
        assert ent._fields == ("s_lower", "s_max")
        assert sol._fields == ("lambda_star", "objective", "iterations", "kkt_residual")
        s_lower, s_max = ent
        assert (s_lower, s_max) == (ent.s_lower, ent.s_max)

    def test_repr_unchanged(self):
        assert [repr(result) for result in self.results()] == [
            "KktCertificate(nu=(-0.5, -0.25, -0.25), min_mu=0.0, valid=True)",
            "EntropyEstimate(s_lower=1.0397207708399179, s_max=1.1246702892376166)",
            "QpSolution(lambda_star=array([0.5 , 0.25, 0.25, 0.  ]), objective=0.375, iterations=1, kkt_residual=0.0)",
        ]

    def test_immutable(self):
        for result in self.results():
            for field in result._fields:
                with pytest.raises(AttributeError):
                    setattr(result, field, None)

    def test_replace_revalidates_the_validated_types(self):
        with pytest.raises(ValueError, match="self-loop"):
            dataclasses.replace(GraphSpec.preset("path-3"), edges=[(0, 0)])
        with pytest.raises(ValueError, match="must lie in"):
            dataclasses.replace(record(0.5), a=(2.0,))

    def test_purity_estimate_copies_with_replace(self):
        est = min_purity(record(0.9, 0.8))
        copy = dataclasses.replace(est, p_min=0.5)
        assert copy.p_min == 0.5
        assert dataclasses.replace(copy, p_min=est.p_min) == est
