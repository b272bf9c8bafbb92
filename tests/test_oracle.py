import math

import numpy as np
import pytest

from stabpurity.diagonal import CoeffVector, assemble_dense, twirl
from stabpurity.errors import DenseCapExceeded
from stabpurity.estimator import MeasurementRecord, binary_entropy, estimate_entropy, min_purity
from stabpurity.oracle import (
    _CHECK_EVERY,
    _TOL,
    MAX_GAMMA_T,
    ORACLE_CAP,
    _dephasing_rate,
    _rk4_step,
    _sign_matrix,
    graph_state_vector,
    master_equation_evolve,
    max_entropy_numeric,
    qp_min_purity,
)
from stabpurity.stabilizer import DENSE_CAP, GraphSpec, expectation_value, generators
from support import optimal_record, random_graph, suboptimal_record

A01 = math.exp(-0.1)


def record(*a):
    return MeasurementRecord(len(a), np.array(a, float))


def primal_dykstra(rec):
    """Dykstra's alternating projections on the 2^n primal iterates, same stopping rule."""
    dim = 1 << rec.n
    rows = _sign_matrix(rec.n)
    b = np.concatenate(([1.0], rec.a))
    x, p, q = np.zeros(dim), np.zeros(dim), np.zeros(dim)
    iterations = 0
    while True:
        for _ in range(_CHECK_EVERY):
            u = x + p
            y = u - rows.T @ (rows @ u - b) / dim
            p = u - y
            v = y + q
            x = np.maximum(v, 0.0)
            q = v - x
        iterations += _CHECK_EVERY
        if max(np.abs(rows @ x - b).max(), 2.0 * np.abs(x + p + q).max()) <= _TOL:
            return x / x.sum(), iterations


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

    @pytest.mark.parametrize("n", range(1, ORACLE_CAP + 1))
    def test_dual_form_is_dykstra(self, n):
        # the dual loop carries n + 1 coefficients instead of the 2^n iterates;
        # in exact arithmetic both are the same sequence, so the stopping test
        # fires at the same sweep and the spectra agree to rounding
        rng = np.random.default_rng(60 + n)
        records = [optimal_record(rng, n)] + ([suboptimal_record(rng, n)] if n >= 2 else [])
        for rec in records:
            lam, iterations = primal_dykstra(rec)
            sol = qp_min_purity(rec)
            assert sol.iterations == iterations
            assert np.abs(sol.lambda_star - lam).max() <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sign-normalized"):
            qp_min_purity(record(-0.5))

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            qp_min_purity(MeasurementRecord(ORACLE_CAP + 1, np.full(ORACLE_CAP + 1, 0.9)))


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

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            max_entropy_numeric(MeasurementRecord(ORACLE_CAP + 1, np.full(ORACLE_CAP + 1, 0.9)))


class TestIntegrator:
    def test_zero_time_returns_projector(self):
        g = GraphSpec.preset("path-3")
        psi = graph_state_vector(g)
        np.testing.assert_allclose(
            master_equation_evolve(g, gamma=1.0, t=0.0), np.outer(psi, psi.conj())
        )

    def test_projector_matches_stabilizer_assembly(self):
        # CZ-circuit construction vs the group-projector identity
        rng = np.random.default_rng(53)
        for n in (1, 2, 3, 4):
            g = random_graph(rng, n)
            psi = graph_state_vector(g)
            rho = assemble_dense(CoeffVector(n, np.ones(1 << n)), g)
            np.testing.assert_allclose(np.outer(psi, psi.conj()), rho, atol=1e-12)

    def test_full_dephasing_limit_single_qubit(self):
        g = GraphSpec(1)
        rho = master_equation_evolve(g, gamma=1.0, t=25.0)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-10)
        assert abs(expectation_value(rho, generators(g)[0])) < 1e-10

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
            for gen in generators(g):
                assert abs(expectation_value(rho, gen) - math.exp(-gt)) < 1e-8

    def test_trace_and_positivity_at_every_step(self):
        g = GraphSpec.preset("ring-3")
        psi = graph_state_vector(g)
        rho = np.outer(psi, psi.conj())
        rate = _dephasing_rate(3, 1.0)
        dt = 0.3 / 300
        for _ in range(300):
            rho = _rk4_step(rho, rate, dt)
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
        np.testing.assert_allclose(_dephasing_rate(n, gamma) * rho, (gamma / 2) * dense, atol=1e-12)

    @pytest.mark.parametrize("name", ["path-4", "ring-6", "star-6"])
    def test_real_arithmetic_is_bit_identical(self, name):
        # rho_0 and the rate are real, so complex arithmetic only carries zeros
        g = GraphSpec.preset(name)
        psi = graph_state_vector(g)
        rate = _dephasing_rate(g.n, 1.0)
        for gt in (0.1, 0.5):
            rho = np.outer(psi, psi.conj())
            steps = max(100, math.ceil(1000.0 * gt))
            for _ in range(steps):
                rho = _rk4_step(rho, rate, gt / steps)
            evolved = master_equation_evolve(g, gamma=1.0, t=gt)
            assert evolved.dtype == rho.dtype
            assert np.array_equal(evolved, rho)

    def test_gamma_t_bound(self):
        g = GraphSpec(1)
        for t in (MAX_GAMMA_T * 1.001, 1e7, math.inf, math.nan):
            with pytest.raises(ValueError, match="bound"):
                master_equation_evolve(g, gamma=1.0, t=t)

    def test_step_floor_enforced(self):
        g = GraphSpec(1)
        with pytest.raises(ValueError, match="floor"):
            master_equation_evolve(g, gamma=1.0, t=1.0, steps=500)
        master_equation_evolve(g, gamma=1.0, t=1.0, steps=1000)

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            master_equation_evolve(GraphSpec.preset(f"path-{DENSE_CAP + 1}"), 1.0, 0.1)
