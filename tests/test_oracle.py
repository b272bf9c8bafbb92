import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabpurity import oracle
from stabpurity.diagonal import DenseCapExceeded, twirl
from stabpurity.estimator import (
    InfeasibleRecord,
    MeasurementRecord,
    binary_entropy,
    estimate_entropy,
    kkt_certificate,
    min_purity,
)
from stabpurity.oracle import (
    MAX_GAMMA_T,
    TOLERANCES,
    NotConverged,
    _certify,
    _polish,
    _rk4_run,
    _solve_tanh,
    _sign_matrix,
    graph_state_vector,
    master_equation_evolve,
    max_entropy_numeric,
    qp_min_purity,
    run_oracle_trials,
)
from stabpurity.stabilizer import DENSE_CAP, GraphSpec
from support import (
    bisect_tanh_reference,
    dense_dephasing_rate,
    feasible_record,
    infeasible_record,
    kron_assemble,
    kron_stabilizer_coefficients,
    line_of,
    lines_run,
    optimal_record,
    random_graph,
    rk4_reference,
    signed_records,
    suboptimal_record,
)

A01 = math.exp(-0.1)


def record(*a):
    return MeasurementRecord(len(a), np.array(a, float))


def primal_dykstra(rec):
    """Plain Dykstra alternating projections on the 2^n primal iterates: the oracle's sweep
    without the dual form or the certified polish, stopped once the residual and the
    stationarity gap are at most 1e-9."""
    dim = 1 << rec.n
    rows = _sign_matrix(rec.n)
    b = np.concatenate(([1.0], rec.a))
    x, p, q = np.zeros(dim), np.zeros(dim), np.zeros(dim)
    while True:
        for _ in range(10):  # sweeps between stopping checks
            u = x + p
            y = u - rows.T @ (rows @ u - b) / dim
            p = u - y
            v = y + q
            x = np.maximum(v, 0.0)
            q = v - x
        if max(np.abs(rows @ x - b).max(), 2.0 * np.abs(x + p + q).max()) <= 1e-9:
            return x / x.sum()


class TestQp:
    def test_single_generator_fully_constrained(self):
        sol = qp_min_purity(record(0.5))
        np.testing.assert_allclose(sol.lambda_star, [0.75, 0.25], atol=1e-9)
        assert sol.objective == pytest.approx(0.625, abs=1e-9)
        assert sol.kkt_residual <= 1e-9

    def test_matches_closed_form_at_reference_point(self):
        sol = qp_min_purity(record(A01, A01))
        assert sol.objective == pytest.approx(0.823259, abs=1e-6)
        assert abs(sol.objective - min_purity(record(A01, A01)).p_min) < 1e-6

    def test_low_fidelity_band(self):
        # closed-form gate rejects this record (sum < n - 2); the QP still
        # solves it, and its optimum sits well below the raw formula value
        sol = qp_min_purity(record(0.3, 0.3, 0.3))
        naive = (-0.05) ** 2 + 3 * 0.35**2  # formula evaluated outside its domain
        assert sol.objective == pytest.approx(0.15875, abs=1e-6)
        assert sol.objective < naive

    def test_solution_is_a_spectrum(self):
        rng = np.random.default_rng(50)
        for trial in range(20):
            n = 1 + trial % 4
            sol = qp_min_purity(optimal_record(rng, n))
            assert sol.lambda_star.min() >= -1e-10
            assert abs(sol.lambda_star.sum() - 1.0) <= 1e-10

    def test_constraints_satisfied(self):
        rng = np.random.default_rng(51)
        rec = optimal_record(rng, 4)
        lam = qp_min_purity(rec).lambda_star
        idx = np.arange(16)
        for k in range(4):
            signs = 1.0 - 2.0 * ((idx >> k) & 1)
            assert abs(np.dot(signs, lam) - rec.a[k]) <= 1e-9

    def test_permutation_invariance(self):
        a = np.array([0.95, 0.8, 0.85])
        base = qp_min_purity(MeasurementRecord(3, a)).objective
        for perm in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
            permuted = qp_min_purity(MeasurementRecord(3, a[perm])).objective
            assert abs(permuted - base) <= 1e-8

    def test_purity_floor_and_ceiling(self):
        for n in (1, 2, 3):
            mixed = qp_min_purity(MeasurementRecord(n, np.zeros(n)))
            assert mixed.objective == pytest.approx(0.5**n, abs=1e-8)
            pure = qp_min_purity(MeasurementRecord(n, np.ones(n)))
            assert pure.objective == pytest.approx(1.0, abs=1e-8)
            below = qp_min_purity(MeasurementRecord(n, np.full(n, 0.99)))
            assert 0.5**n - 1e-10 <= below.objective < 1.0

    def test_deterministic(self):
        rec = record(0.81, 0.93)
        s1, s2 = qp_min_purity(rec), qp_min_purity(rec)
        np.testing.assert_array_equal(s1.lambda_star, s2.lambda_star)
        assert s1.iterations == s2.iterations

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    def test_dual_sweep_reaches_the_optimum(self, n):
        # the certified spectrum is the optimum that primal Dykstra (the reference,
        # too slow past n = 8: 63,480 sweeps at n = 8) and, in the optimality domain,
        # the closed form's lambda_0 and single-bit eigenvalues both give
        rng = np.random.default_rng(60 + n)
        rec = optimal_record(rng, n)
        est = min_purity(rec)
        closed = np.zeros(1 << n)
        closed[0] = est.lambda0
        closed[1 << np.arange(n)] = est.singles
        records = [rec] + ([suboptimal_record(rng, n)] if n >= 2 else [])
        solutions = [qp_min_purity(r) for r in records]
        assert np.abs(solutions[0].lambda_star - closed).max() <= 1e-12
        for r, sol in zip(records, solutions):
            assert sol.kkt_residual <= 1e-12
            if n <= 8:
                assert np.abs(sol.lambda_star - primal_dykstra(r)).max() <= 1e-8

    @staticmethod
    def spy_certify(monkeypatch) -> list:
        """Record each ``_certify`` call as (constraint rows, spectrum or None)."""
        certify, calls = oracle._certify, []

        def spy(rows, b, support):
            x = certify(rows, b, support)
            calls.append((len(rows), x))
            return x

        monkeypatch.setattr(oracle, "_certify", spy)
        return calls

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    def test_binary_records_certify(self, n, monkeypatch):
        # an a_k of exactly 0 or 1 leaves the optimum uniform on the 2^zeros
        # eigenvalues that fit the pinned bits; the ones are removed before the
        # solve, so the all-ones record sweeps once and certifies lambda_0 = 1
        # by one _certify call on the 1 x 1 system of the sum row
        rng = np.random.default_rng(90 + n)
        ones = np.eye(n)
        records = [np.ones(n), np.zeros(n), ones[0], ones[-1]] + [
            rng.integers(0, 2, size=n).astype(float) for _ in range(4)
        ]
        calls = self.spy_certify(monkeypatch)
        for a in records:
            checks = len(calls)
            sol = qp_min_purity(MeasurementRecord(n, a))
            assert abs(sol.objective - 0.5 ** (n - int(a.sum()))) <= 1e-12
            assert sol.kkt_residual <= 1e-12
            if a.all():
                assert len(calls) == checks + 1 and sol.iterations == 1
                np.testing.assert_array_equal(sol.lambda_star, np.eye(1 << n)[0])

    @pytest.mark.parametrize(
        "near, pinned",
        [
            pytest.param(near, pinned, id=repr(near))
            for near, pinned in [(1.0, 0b01010), (1.0 - 2.0**-53, 0b01010), (1.0 - 2.0**-52, 0b01010),
                                 (1.0 - 2.0**-44, 0b01010), (1.0 - 2.0**-43, 0b00010)]
        ],
    )
    def test_pinned_generators_are_removed_before_the_solve(self, near, pinned, monkeypatch):
        # a_1 = 1, and a_3 is pinned too within 2^-44 of 1: every check solves the
        # record of the free a_k, so _certify sees one constraint row per free a_k
        # plus the sum row, and its spectrum lands on the indices with every pinned
        # bit clear; a_3 = 1 - 2^-43 stays in the record and certifies
        a = np.array([0.9, 1.0, 0.8, near, 0.85])
        free = [k for k in range(5) if not pinned >> k & 1]
        calls = self.spy_certify(monkeypatch)
        sol = qp_min_purity(MeasurementRecord(5, a))
        assert calls and all(rows == len(free) + 1 for rows, _ in calls)
        clear = [j for j in range(32) if not j & pinned]
        np.testing.assert_array_equal(sol.lambda_star[clear], calls[-1][1])
        assert not sol.lambda_star[[j for j in range(32) if j & pinned]].any()
        assert sol.iterations == qp_min_purity(MeasurementRecord(len(free), a[free])).iterations
        assert sol.kkt_residual <= 1e-12

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12, 1e-15, 3 * 2.0**-53])
    def test_near_pinned_records_certify(self, gap, monkeypatch):
        # a_k = 1 - gap leaves a mass gap/2 on bit k = 1 that the sweep barely moves
        # toward; up to 3 such a_k, pinned or not, the first sweep's support of each
        # of these 24 records certifies at its first _certify call, with no join
        rng = np.random.default_rng(120)
        calls = self.spy_certify(monkeypatch)
        for n in range(2, 8):
            for _ in range(4):
                a = rng.uniform(0.0, 1.0, n)
                a[rng.choice(n, size=rng.integers(1, min(n, 3) + 1), replace=False)] = 1.0 - gap
                rec = MeasurementRecord(n, a)
                sol = qp_min_purity(rec)
                assert sol.kkt_residual <= 1e-12
                assert sol.iterations == 1
                try:
                    cert = kkt_certificate(rec)
                except InfeasibleRecord:
                    continue
                if cert.valid:
                    assert abs(sol.objective - min_purity(rec).p_min) <= 1e-12
        assert len(calls) == 24 and all(x is not None for _, x in calls)

    @pytest.mark.parametrize(
        "a, checks, iterations",
        [
            pytest.param([0.9341359749590945, 0.6788513980064843, 0.6381853013842094,
                          0.6813316525573624, 0.7522985601681769], 7, 2, id="second-sweep"),
            pytest.param([0.7129764272199567, 0.9985005537662128, 0.6650569853272718,
                          0.7191708549817392, 0.8581305040492287, 0.9259857184200254,
                          0.74577237169381], 2, 1, id="join"),
        ],
    )
    def test_ordinary_records_reach_the_join(self, a, checks, iterations, monkeypatch):
        # no a_k near 1, and the closed form optimal: yet the first sweep's support
        # declines, so the best-scoring index joins it.  At n = 7 the join certifies
        # in the first sweep; at n = 5 all n + 1 rounds decline and the second
        # sweep's first check certifies
        rec = MeasurementRecord(len(a), a)
        calls = self.spy_certify(monkeypatch)
        sol = qp_min_purity(rec)
        assert [x is None for _, x in calls] == [True] * (checks - 1) + [False]
        assert sol.iterations == iterations
        assert sol.kkt_residual <= 1e-12
        assert kkt_certificate(rec).valid
        assert abs(sol.objective - min_purity(rec).p_min) <= 1e-12

    def test_a_rounding_unit_below_1_is_pinned(self):
        # a_6 = 1 - 2^-53 beside a_2 = 1 - 1e-14: left in the record, every check's
        # active-set steps ended on a singular support until the sweep budget ran out
        a = [0.3687581911353296, 0.99999999999999, 0.12648232484042066, 0.5032554426187286,
             0.3337347061367202, 0.9999999999999999, 0.35183916279474026, 0.8254642039746487]
        sol = qp_min_purity(MeasurementRecord(8, a))
        assert sol.kkt_residual <= 1e-12
        assert sol.iterations == 1
        assert not sol.lambda_star[[j for j in range(256) if j & 0b100000]].any()

    @pytest.mark.parametrize(
        "a",
        [
            [0.2504042886087888, 0.23337797609229205, 0.43189388438194, 0.89279328211738,
             0.7803387881072801, 0.9999998689124201, 0.9999999999999994, 0.8209354914360745],
            [0.7954957432656149, 0.918315700195816, 0.8178945210958621, 0.9715586745856921,
             0.9999999999999996, 0.9606313768064, 0.7204793947788362, 0.874529858168216,
             0.7422364980204363, 0.7354282442398391],
            [0.7945253446958933, 0.8146150350431842, 0.9999999999999996, 0.8636146177018611,
             0.822968491903814, 0.7682209840528157, 0.794602943996075, 0.7262878301198094,
             0.8680077729486676],
            [0.7100372207318804, 0.7237809374303071, 0.8032274032879608, 0.9089196737680757,
             0.9999999999999992, 0.8588203621820538, 0.886102178323949, 0.7463731728189694,
             0.9555039339524343, 0.9300248276140963],
        ],
        ids=["n8", "rng32-59783", "rng32-94285", "rng32-119790"],
    )
    def test_records_that_stalled_the_sweep_certify_at_once(self, a, monkeypatch):
        # each has one a_k 4 to 7 units of 2^-53 below 1 (and the first another at
        # 1 - 1.3e-7); left in the record, that a_k kept every support singular: the
        # n = 8 record swept all 10^6 sweeps, about 6 minutes, and the other three,
        # records 59783, 94285 and 119790 of the 200,000 drawn from numpy's
        # default_rng(32) in BENCH_31.json, did not certify in 20,000.
        # Pinned, each certifies after the first sweep, well inside a budget of 20
        monkeypatch.setattr(oracle, "_MAX_ITER", 20)
        rec = MeasurementRecord(len(a), a)
        k = next(k for k, x in enumerate(a) if 0.0 < 1.0 - x < 1e-15)
        sol = qp_min_purity(rec)
        assert sol.iterations == 1
        assert sol.kkt_residual <= 1e-12
        assert not sol.lambda_star[[j for j in range(1 << rec.n) if j >> k & 1]].any()
        try:
            cert = kkt_certificate(rec)
        except InfeasibleRecord:
            return
        if cert.valid:
            assert abs(sol.objective - min_purity(rec).p_min) <= 1e-12

    def test_pinned_record_certifies(self):
        # a_8 = 1 keeps the optimum on bit 8 = 0; that generator is removed before
        # the solve, so the 7-generator record certifies (the support system of the
        # full record was singular, and certified only through a lucky LU pivot)
        rng = np.random.default_rng(102)
        a = np.array(feasible_record(rng, 8).a)
        a[rng.integers(8)] = 1.0
        sol = qp_min_purity(MeasurementRecord(8, a))
        assert a.tolist().count(1.0) == 1
        assert sol.kkt_residual <= 1e-12

    @given(st.data())
    @settings(max_examples=200)
    def test_every_answer_is_certified(self, data):
        # each a_k from [0, 1], some snapped to exactly 0 or 1 or drawn just below 1:
        # pinned, binary, band and infeasible-gate records alike certify to 1e-12
        n = data.draw(st.integers(1, 6))
        near_one = st.floats(2.0**-53, 1e-6).map(lambda gap: 1.0 - gap)
        value = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]), near_one)
        rec = MeasurementRecord(n, data.draw(st.lists(value, min_size=n, max_size=n)))
        sol = qp_min_purity(rec)
        assert sol.kkt_residual <= 1e-12
        assert sol.lambda_star.min() >= -1e-12
        try:
            closed = min_purity(rec).p_min
        except InfeasibleRecord:
            return
        assert sol.objective <= closed + 1e-12

    @staticmethod
    def assert_same_answer(sol, expected):
        # a certified lambda depends on its support alone, however it was reached
        np.testing.assert_array_equal(sol.lambda_star, expected.lambda_star)
        assert (sol.objective, sol.kkt_residual) == (expected.objective, expected.kkt_residual)

    def test_later_sweeps_keep_the_answer(self, monkeypatch):
        # declining the checks of the first 8 sweeps (n + 1 calls each) on this band
        # record keeps the sweep going, and the 9th sweep's check certifies the same
        # spectrum that the first sweep's does
        rec, certify, calls = record(0.5, 0.6, 0.7), oracle._certify, []
        expected = qp_min_purity(rec)

        def decline(rows, b, support):
            calls.append(support)
            return None if len(calls) <= 8 * len(b) else certify(rows, b, support)

        monkeypatch.setattr(oracle, "_certify", decline)
        sol = qp_min_purity(rec)
        assert sol.iterations == 9
        self.assert_same_answer(sol, expected)

    def test_real_record_within_the_pin_certifies_at_once(self):
        # a_3 = 1 - 5.6e-16 leaves a tiny eigenvalue along a nearly flat dual
        # direction, which takes hundreds of sweeps if a_3 stays in the record;
        # pinned, bit 2 is 0 and the rest certifies after the first sweep
        a = [0.9268263742049634, 0.7226430811176385, 0.9999999999999994, 0.7384047906271977,
             0.8343845926873698, 0.8284445860031847, 0.8984716282816765, 0.7587908769133337,
             0.9870237721810534, 0.8149061135803893]
        sol = qp_min_purity(MeasurementRecord(10, a))
        assert sol.iterations == 1
        assert not sol.lambda_star[[j for j in range(1024) if j & 0b100]].any()
        assert sol.kkt_residual <= 1e-12
        assert sol.lambda_star.min() >= -1e-12

    def test_re_polish_budget_keeps_the_answer(self, monkeypatch):
        # the first n + 1 solves reject with scores that alternate between the even
        # and the odd indices, so _certify gives up on a support that never repeats;
        # the best-scoring index joins the sweep's support and the real solves certify
        rec, polish, calls = record(0.5, 0.6, 0.7), oracle._polish, []
        expected = qp_min_purity(rec)

        def alternate(rows, b, support):
            calls.append(support)
            if len(calls) > len(b):
                return polish(rows, b, support)
            return None, np.where(np.arange(rows.shape[1]) % 2 == len(calls) % 2, 1.0, -1.0)

        monkeypatch.setattr(oracle, "_polish", alternate)
        sol, hit = lines_run(_certify, qp_min_purity, rec)
        assert line_of(_certify, "return None") in hit
        assert len(calls) > len(rec.a) + 1 and sol.iterations == 1
        self.assert_same_answer(sol, expected)

    @given(signed_records(4))
    @settings(max_examples=100)
    def test_signed_record_is_answered_as_its_magnitudes(self, records):
        # flipping K_k -> -K_k flips bit k of every index: both solvers answer the
        # |a| record, and the signed system's own optimum is that spectrum bit-flipped
        signed, plain = records
        sol, expected = qp_min_purity(signed), qp_min_purity(plain)
        self.assert_same_answer(sol, expected)
        assert sol.iterations == expected.iterations
        lam, s_max = max_entropy_numeric(signed)
        plain_lam, plain_s_max = max_entropy_numeric(plain)
        assert np.array_equal(lam, plain_lam) and s_max == plain_s_max
        flips = sum(1 << k for k, x in enumerate(signed.a) if x < 0.0)
        flipped = sol.lambda_star[np.arange(1 << signed.n) ^ flips]
        assert np.abs(primal_dykstra(signed) - flipped).max() <= 1e-8

    def test_not_converged_past_budget(self, monkeypatch):
        monkeypatch.setattr(oracle, "_certify", lambda *args: None)
        monkeypatch.setattr(oracle, "_MAX_ITER", 20)  # sweeps
        with pytest.raises(NotConverged, match="after 20 iterations"):
            qp_min_purity(record(0.9, 0.85, 0.8, 0.95))

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            qp_min_purity(MeasurementRecord(DENSE_CAP + 1, np.full(DENSE_CAP + 1, 0.9)))


class TestPolish:
    """The exact solve on a support is returned only if it meets the whole KKT system."""

    @staticmethod
    def system(*a):
        return _sign_matrix(len(a)), np.concatenate(([1.0], a))

    @staticmethod
    def support(n, members):
        mask = np.zeros(1 << n, bool)
        mask[list(members)] = True
        return mask

    def test_true_support_accepted(self):
        rows, b = self.system(0.0, 0.0)
        x, scores = _polish(rows, b, self.support(2, range(4)))
        np.testing.assert_array_equal(x, np.full(4, 0.25))
        np.testing.assert_array_equal(scores, np.full(4, 0.25))

    def test_negative_spectrum_rejected(self):
        # full support on a domain record: B^T b / 4 has (1 - 0.99 - 0.95) / 4 < 0
        rows, b = self.system(0.99, 0.95)
        assert kkt_certificate(MeasurementRecord(2, (0.99, 0.95))).valid
        x, scores = _polish(rows, b, self.support(2, range(4)))
        assert x is None
        assert scores[3] < 0.0

    def test_positive_score_off_support_rejected(self):
        # on the mixed record, {0, 1, 2} gives the spectrum (0, 1/2, 1/2, 0): nonnegative
        # and feasible, but (B^T nu)_3 = 1 > 0, so it is not the optimum (1/4 each)
        rows, b = self.system(0.0, 0.0)
        x, scores = _polish(rows, b, self.support(2, [0, 1, 2]))
        assert x is None
        np.testing.assert_array_equal(scores, [0.0, 0.5, 0.5, 1.0])

    def test_singular_support_rejected(self):
        rows, b = self.system(0.0, 0.0, 0.0)
        assert _polish(rows, b, self.support(3, [0])) == (None, None)

    def test_inexact_solve_fails_residual(self, monkeypatch):
        # the check reads B and b, not the solver: a solve that comes back 10% short
        # keeps every sign right, so only ||B lambda - b|| can reject it
        rows, b = self.system(0.0, 0.0)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: 0.9 * solve(m, rhs))
        assert _polish(rows, b, self.support(2, range(4)))[0] is None

    def test_rejected_support_is_corrected(self):
        # the rejected {0, 1, 2} scores >= 0 everywhere, so the re-polish solves on
        # all four eigenvalues and certifies the uniform optimum
        rows, b = self.system(0.0, 0.0)
        np.testing.assert_array_equal(_certify(rows, b, self.support(2, [0, 1, 2])), np.full(4, 0.25))

    @staticmethod
    def counted_solves(monkeypatch) -> list:
        solves = []
        monkeypatch.setattr(oracle, "_polish", lambda *args: solves.append(args) or _polish(*args))
        return solves

    def test_re_polish_stops_at_a_singular_or_fixed_support(self, monkeypatch):
        solves = self.counted_solves(monkeypatch)
        rows, b = self.system(0.0, 0.0, 0.0)
        assert _certify(rows, b, self.support(3, [0])) is None
        assert len(solves) == 1
        # a solve 10% short scores 0.225 on every eigenvalue: S' = S, so a second
        # solve would repeat the first
        solves.clear()
        rows, b = self.system(0.0, 0.0)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: 0.9 * solve(m, rhs))
        assert _certify(rows, b, self.support(2, range(4))) is None
        assert len(solves) == 1

    def test_re_polish_follows_the_rejected_scores(self, monkeypatch):
        # (0.99, 0.95) on its full support scores negative at j = 3 only, so
        # S' = {0, 1, 2}, which certifies the closed form
        solves = self.counted_solves(monkeypatch)
        rows, b = self.system(0.99, 0.95)
        x = _certify(rows, b, self.support(2, range(4)))
        assert len(solves) == 2
        assert abs(np.dot(x, x) - min_purity(MeasurementRecord(2, (0.99, 0.95))).p_min) <= 1e-15

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    def test_domain_records_equal_closed_form(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            rec = optimal_record(rng, n)
            sol = qp_min_purity(rec)
            assert sol.kkt_residual <= 1e-12
            assert abs(sol.objective - min_purity(rec).p_min) <= 1e-12

    @pytest.mark.parametrize("n", range(2, DENSE_CAP + 1))
    def test_certified_at_first_check(self, n):
        # the support of the first sweep is a few re-polishes from the optimum's
        rng = np.random.default_rng(110 + n)
        records = [sample(rng, n) for sample in (optimal_record, suboptimal_record) for _ in range(3)]
        records += [infeasible_record(rng, n) for _ in range(3)] if n >= 3 else []
        for rec in records:
            sol = qp_min_purity(rec)
            assert sol.iterations == 1
            assert sol.kkt_residual <= 1e-12

    @pytest.mark.parametrize("n", range(2, DENSE_CAP + 1))
    def test_band_records_below_closed_form(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            rec = suboptimal_record(rng, n)
            sol = qp_min_purity(rec)
            assert sol.kkt_residual <= 1e-12
            assert sol.objective <= min_purity(rec).p_min + 1e-12


class TestOracleTrials:
    def test_breach_always_has_failure_document(self, monkeypatch):
        # an exact gap of 0.0 still breaches a negative tolerance
        monkeypatch.setattr(oracle, "instance_gap", lambda kind, n, x: 0.0)
        monkeypatch.setitem(TOLERANCES, "qp", -1.0)
        summary = run_oracle_trials(2, 1, 2, seed=0)
        assert not summary["ok"]
        assert summary["failure"] is not None
        assert summary["failure"]["kind"] == "qp"


class TestMaxEntropy:
    def test_uniform_limit(self):
        lam, s = max_entropy_numeric(record(0.0, 0.0))
        np.testing.assert_allclose(lam, 0.25, atol=1e-12)
        assert s == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_single_generator(self):
        lam, s = max_entropy_numeric(record(0.9))
        assert s == pytest.approx(binary_entropy(0.95), abs=1e-9)
        np.testing.assert_allclose(lam, [0.95, 0.05], atol=1e-9)

    def test_pinned_expectation(self):
        lam, s = max_entropy_numeric(record(1.0, 0.5))
        assert s == pytest.approx(binary_entropy(0.75), abs=1e-9)
        assert lam[0b01] == 0.0 and lam[0b11] == 0.0  # bit 0 never excited

    def test_matches_closed_form(self):
        lam, s = max_entropy_numeric(record(A01, A01))
        assert abs(s - estimate_entropy(record(A01, A01)).s_max) < 1e-6
        assert s == pytest.approx(0.3827, abs=5e-5)

    def test_spectrum_satisfies_constraints(self):
        rng = np.random.default_rng(52)
        rec = optimal_record(rng, 3)
        lam, _ = max_entropy_numeric(rec)
        idx = np.arange(8)
        assert abs(lam.sum() - 1.0) < 1e-12
        for k in range(3):
            signs = 1.0 - 2.0 * ((idx >> k) & 1)
            assert abs(np.dot(signs, lam) - rec.a[k]) < 1e-9

    @pytest.mark.parametrize("n", range(1, DENSE_CAP + 1))
    def test_spectrum_is_the_kron_product(self, n):
        # bit k of the index is generator k's bit, qubit 0 the rightmost factor
        rng = np.random.default_rng(5600 + n)
        pinned = np.array(feasible_record(rng, n).a)
        pinned[::2], pinned[1::3] = 1.0, 0.0
        for rec in (optimal_record(rng, n), feasible_record(rng, n), MeasurementRecord(n, pinned)):
            expected = np.array([1.0])
            for ak in rec.a:
                p_zero = 1.0 if ak >= 1.0 else 1.0 / (1.0 + math.exp(-2.0 * _solve_tanh(ak)))
                expected = np.kron(np.array([p_zero, 1.0 - p_zero]), expected)
            assert np.array_equal(max_entropy_numeric(rec)[0], expected)

    def test_bisection_matches_the_reference_bit_for_bit(self):
        # the spectrum test above builds its expectation with _solve_tanh itself;
        # this pins the bisection's bits against the test suite's own copy
        draws = np.random.default_rng(5700).uniform(0.0, 1.0, 200).tolist()
        targets = [0.0, 1e-300, *draws, *(1.0 - 10.0**-k for k in range(1, 16)), 1.0 - 2.0**-53, 1.0]
        assert [_solve_tanh(x) for x in targets] == [bisect_tanh_reference(x) for x in targets]

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            max_entropy_numeric(MeasurementRecord(DENSE_CAP + 1, np.full(DENSE_CAP + 1, 0.9)))


class TestIntegrator:
    def test_zero_time_returns_projector(self):
        # at gamma*t = 0 (t = 0, or gamma = 0 with t > 0) every run returns |psi_0|^2
        # unchanged: the real projector psi psi^T, bit for bit, with imaginary parts +0.0
        for name in ("path-3", "ring-5", "star-6"):
            g = GraphSpec.preset(name)
            psi = graph_state_vector(g).real
            expected = np.outer(psi, psi).astype(complex)
            for gamma, t in ((1.0, 0.0), (0.0, 0.5)):
                rho = master_equation_evolve(g, gamma, t)
                np.testing.assert_array_equal(rho, expected)
                assert np.array_equal(np.signbit(rho.real), np.signbit(expected.real))
                assert np.array_equal(np.signbit(rho.imag), np.signbit(expected.imag))

    def test_projector_matches_stabilizer_assembly(self):
        # CZ-circuit construction vs the group-projector identity
        rng = np.random.default_rng(53)
        for n in (1, 2, 3, 4):
            g = random_graph(rng, n)
            psi = graph_state_vector(g)
            rho = kron_assemble(np.ones(1 << n), g)
            np.testing.assert_allclose(np.outer(psi, psi.conj()), rho, atol=1e-12)

    def test_full_dephasing_limit_single_qubit(self):
        g = GraphSpec(1)
        rho = master_equation_evolve(g, gamma=1.0, t=25.0)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-10)
        assert abs(kron_stabilizer_coefficients(rho, g)[1]) < 1e-10

    def test_decay_matches_closed_form(self):
        g = GraphSpec.preset("path-2")
        c = twirl(master_equation_evolve(g, gamma=1.0, t=0.1), g)
        expected = [1.0, math.exp(-0.1), math.exp(-0.1), math.exp(-0.2)]
        np.testing.assert_allclose(c.values, expected, atol=1e-8)

    def test_generator_expectations_decay_on_random_graphs(self):
        rng = np.random.default_rng(54)
        for n in (2, 3, 4):
            g = random_graph(rng, n)
            gt = 0.2
            rho = master_equation_evolve(g, gamma=2.0, t=0.1)
            c = kron_stabilizer_coefficients(rho, g)
            for k in range(n):
                assert abs(c[1 << k] - math.exp(-gt)) < 1e-8

    def test_trace_and_positivity_at_every_step(self):
        g = GraphSpec.preset("ring-3")
        psi = graph_state_vector(g)
        rho = np.outer(psi, psi.conj())
        rate = dense_dephasing_rate(3, 1.0)
        dt = 0.3 / 300
        for _ in range(300):
            rho = _rk4_run(rho, rate, dt, 1)
            assert np.array_equal(rho, rho.conj().T)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_rate_matches_dense_dephasing(self):
        # R o rho equals (gamma/2) sum_i (Z_i rho Z_i - rho) with dense Z_i
        rng = np.random.default_rng(55)
        n, gamma = 3, 0.7
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        z = np.diag([1.0, -1.0])
        dense = np.zeros_like(rho)
        for i in range(n):
            z_i = np.kron(np.kron(np.eye(1 << (n - 1 - i)), z), np.eye(1 << i))
            dense += z_i @ rho @ z_i - rho
        np.testing.assert_allclose(dense_dephasing_rate(n, gamma) * rho, (gamma / 2) * dense, atol=1e-12)

    @pytest.mark.parametrize(
        "name, gamma, gamma_ts, steps",
        [pytest.param(name, 1.0, (0.1, 0.5, 2.0), None, id=name) for name in ("path-1", "path-4", "ring-6", "star-6")]
        + [pytest.param("star-8", 1.0, (0.1, 0.5), None, id="star-8")]
        + [
            pytest.param(name, 0.37, (0.1, 0.5), None, id=f"{name}-gamma0.37")
            for name in ("path-1", "path-4", "ring-6", "star-6")
        ]
        # dt / 6 and dt * (1 / 6) round apart at these steps
        + [
            pytest.param(name, 0.7, (0.07, 0.1, 0.2), None, id=f"{name}-gamma0.7")
            for name in ("path-4", "ring-6", "star-6")
        ]
        # the dense cap, where the steps are kept few for the dense loop's sake
        + [pytest.param(name, 1.0, (0.01,), 10, id=name) for name in ("path-10", "star-10")],
    )
    def test_real_arithmetic_is_bit_identical(self, name, gamma, gamma_ts, steps):
        # the test suite's dense 2^n x 2^n RK4 loop is the whole integration,
        # step by step: it pins the oracle's RK4 arithmetic to the bit, the real
        # arithmetic (rho_0 and the rate are real, so complex arithmetic only
        # carries zeros) and the one-float-run-per-Hamming-distance reduction
        # with its sign restore
        g = GraphSpec.preset(name)
        psi = graph_state_vector(g)
        rate = dense_dephasing_rate(g.n, gamma)
        for gt in gamma_ts:
            t = gt / gamma
            n_steps = steps or max(100, math.ceil(1000.0 * (gamma * t)))
            rho = rk4_reference(np.outer(psi, psi.conj()), rate, t / n_steps, n_steps)
            evolved = master_equation_evolve(g, gamma=gamma, t=t, steps=steps)
            assert evolved.dtype == rho.dtype
            assert np.array_equal(evolved, rho)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_float_run_per_distance(self, n, monkeypatch):
        # a graph state has one |rho_0| and n + 1 rates; the rate +0.0 at d = 0
        # leaves |rho_0| unchanged, so n scalar runs, and the diagonal is |psi_0|^2
        calls = []

        def counted(x, rate, dt, steps):
            calls.append((type(x), type(rate), type(dt), steps))
            return _rk4_run(x, rate, dt, steps)

        monkeypatch.setattr(oracle, "_rk4_run", counted)
        for kind in ("path", "ring", "star"):
            for gamma, t, steps in ((1.0, 0.1, None), (0.37, 0.5, 250)):
                calls.clear()
                graph = GraphSpec.preset(f"{kind}-{n}")
                rho = master_equation_evolve(graph, gamma, t, steps)
                expected_steps = steps or max(100, math.ceil(1000.0 * gamma * t))
                assert len(calls) == n
                assert set(calls) == {(float, float, float, expected_steps)}
                psi = graph_state_vector(graph)
                assert np.array_equal(rho.diagonal(), np.outer(psi, psi.conj()).diagonal())
                if n % 2 == 0:  # 2^(-n/2) is exact, so |psi_0|^2 is 2^-n
                    assert (rho.diagonal() == 2.0**-n).all()

    def test_rejects_overflowing_rates(self):
        # gamma*t is small but the rates or the RK4 sum overflow; both once gave nan entries
        for name, gamma, t in (("path-3", 1e308, 1e-308), ("path-1", 9e307, 1e-308)):
            with pytest.raises(ValueError, match="overflows"):
                master_equation_evolve(GraphSpec.preset(name), gamma, t)
        rho = master_equation_evolve(GraphSpec.preset("path-3"), 1e300, 1e-300)
        assert np.isfinite(rho).all()

    def test_gamma_t_bound(self):
        g = GraphSpec(1)
        for t in (MAX_GAMMA_T * 1.001, 1e7, math.inf, math.nan):
            with pytest.raises(ValueError, match="bound"):
                master_equation_evolve(g, gamma=1.0, t=t)
        for gamma, t in ((-1.0, 0.1), (1.0, -0.1)):
            with pytest.raises(ValueError, match="nonnegative"):
                master_equation_evolve(g, gamma, t)

    def test_step_floor_enforced(self):
        g = GraphSpec(1)
        with pytest.raises(ValueError, match="floor"):
            master_equation_evolve(g, gamma=1.0, t=1.0, steps=500)
        master_equation_evolve(g, gamma=1.0, t=1.0, steps=1000)

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            master_equation_evolve(GraphSpec.preset(f"path-{DENSE_CAP + 1}"), 1.0, 0.1)
