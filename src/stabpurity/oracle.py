"""Brute-force numeric verifiers for the closed-form estimators.

Everything here trades efficiency for independence: the quadratic program is
solved by alternating projections in the full 2^n eigenvalue space, the
maximum-entropy problem by one-dimensional root finding, and the dephasing
channel by direct Runge-Kutta integration of a dense density matrix.  None of
these paths share formulas with the estimator module they are used to check.

The purity QP is run in the eigenvalue basis, where positivity is the
nonnegative orthant and each measured expectation is a single-bit parity sum:

    minimize sum_j lambda_j^2
    s.t.     sum_j lambda_j = 1,
             sum_j (-1)^{j_k} lambda_j = a_k   (k = 1..n),
             lambda >= 0.

Minimizing the sum of squares over that set is exactly the Euclidean
projection of the origin onto it, so Dykstra's alternating projections
(affine set <-> orthant, with correction terms; Boyle & Dykstra 1986)
converge to the optimum.  Write B for the (n+1) x 2^n constraint matrix
(Walsh characters, so B B^T = 2^n I and the affine projection is closed-form)
and b = (1, a).  From x = p = q = 0 one Dykstra sweep reads

    u = x + p,  y = u - B^T (B u - b) / 2^n,  p = u - y,
    v = y + q,  x = max(v, 0),  q = v - x.

By induction u = -q, so p = B^T (B u - b) / 2^n and v = y + q = -p: the
vector before the orthant clip lies in the row space of B, v = B^T nu, and
the correction terms are p = -B^T nu and q = min(B^T nu, 0).  Using
B min(B^T nu, 0) = 2^n nu - B max(B^T nu, 0), the sweep in the n+1 dual
coefficients is

    nu <- nu + b / 2^n - (B / 2^n) max(B^T nu, 0),     x = max(B^T nu, 0),

which is the loop below: the same iterates in exact arithmetic, at the cost
of two thin matrix-vector products per sweep instead of about ten 2^n-vector
operations.  The correction terms are the KKT multipliers: p lies in the
row space of B, q is nonpositive with exact complementarity, and
stationarity x + p + q = 0 holds by construction, so

    kkt_residual = ||B x - b||_inf

is the whole KKT system violation.

Cross-check.  ``instance_gap`` scores one instance of a check kind (``qp``,
``entropy`` or ``integrator``) as the deviation of the closed form from its
numeric counterpart, and ``TOLERANCES`` holds the one bound per kind that the
randomized trials (``run_oracle_trials``), the replay of a failing instance
and the printed summary all read.  The solvers above still share no formula
with the estimator; only the scorer calls both and compares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagonal import twirl
from .errors import DenseCapExceeded, NotConverged
from .estimator import MeasurementRecord, closed_form_is_optimal, estimate_entropy, min_purity
from .simulator import dephased_coefficients
from .stabilizer import DENSE_CAP, GraphSpec

#: Largest n the numeric solvers accept (2^n-dimensional iterates).
ORACLE_CAP = 8
#: Iterations between convergence checks.
_CHECK_EVERY = 100
#: QP stopping residual and iteration budget.
_TOL = 1e-9
_MAX_ITER = 10**6
#: Largest gamma*t the master-equation integrator accepts; see master_equation_evolve.
MAX_GAMMA_T = 30.0
#: Largest deviation of a closed form from its numeric check, per check kind.
TOLERANCES = {"qp": 1e-6, "entropy": 1e-6, "integrator": 1e-8}


@dataclass(frozen=True)
class QpSolution:
    lambda_star: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def _sign_matrix(n: int) -> np.ndarray:
    """Rows: the all-ones vector, then (-1)^{bit k of j} for each k."""
    idx = np.arange(1 << n)
    rows = np.empty((n + 1, 1 << n))
    rows[0] = 1.0
    for k in range(n):
        rows[k + 1] = 1.0 - 2.0 * ((idx >> k) & 1)
    return rows


def qp_min_purity(record: MeasurementRecord) -> QpSolution:
    """Numeric minimum purity over the eigenvalue simplex; see module docstring.

    Deterministic (no randomized restarts): identical inputs give identical
    iterates.  The returned spectrum is normalized to exact unit mass after
    the stopping test; ``kkt_residual`` is the solver's stopping residual,
    the primal gap ||B x - b||_inf.
    The constraint set is never empty on [0, 1]^n: the product spectrum
    prod_k (1 +- a_k)/2 satisfies it.  Stops once the residual is at most
    ``_TOL``; raises NotConverged past ``_MAX_ITER`` iterations.
    """
    if record.n > ORACLE_CAP:
        raise DenseCapExceeded(record.n, ORACLE_CAP, "numeric quadratic program")
    _require_unit_interval(record.a)
    dim = 1 << record.n
    rows = _sign_matrix(record.n)
    b = np.concatenate(([1.0], record.a))
    step_rows = rows / dim  # rows are orthogonal with norm^2 = dim
    step_b = b / dim
    nu = np.zeros(record.n + 1)
    iterations = 0
    residual = math.inf
    while iterations < _MAX_ITER:
        for _ in range(_CHECK_EVERY):  # one Dykstra sweep in dual form (module docstring)
            nu += step_b - step_rows @ np.maximum(rows.T @ nu, 0.0)
        iterations += _CHECK_EVERY
        x = np.maximum(rows.T @ nu, 0.0)
        residual = float(np.abs(rows @ x - b).max())
        if residual <= _TOL:
            # exact unit mass; shifts the other constraints by O(residual) only
            x /= x.sum()
            return QpSolution(x, float(np.dot(x, x)), iterations, residual)
    raise NotConverged(iterations, residual)


def _require_unit_interval(a) -> None:
    if not all(0.0 <= x <= 1.0 for x in a):
        raise ValueError("expectations must be sign-normalized into [0, 1]")


def _solve_tanh(target: float) -> float:
    """Monotone bisection for tanh(theta) = target, target in [0, 1)."""
    lo, hi = 0.0, 1.0
    while math.tanh(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.tanh(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    theta = 0.5 * (lo + hi)
    if abs(math.tanh(theta) - target) > 1e-12:
        raise NotConverged(200, abs(math.tanh(theta) - target))
    return theta


def max_entropy_numeric(record: MeasurementRecord) -> tuple[np.ndarray, float]:
    """Maximize -sum lambda ln lambda under the same constraint set as the QP.

    The entropy maximizer has the Gibbs form lambda_j proportional to
    exp(sum_k theta_k (-1)^{j_k}); the constraints decouple into one monotone
    equation tanh(theta_k) = a_k per generator, solved by bisection.  The
    entropy is then evaluated directly from the assembled 2^n spectrum.
    Returns (lambda_star, s_max).
    """
    if record.n > ORACLE_CAP:
        raise DenseCapExceeded(record.n, ORACLE_CAP, "numeric entropy maximization")
    _require_unit_interval(record.a)
    lam = np.array([1.0])
    for ak in record.a:
        if ak >= 1.0:
            p_zero = 1.0  # expectation pinned: that bit is deterministically 0
        else:
            p_zero = 1.0 / (1.0 + math.exp(-2.0 * _solve_tanh(float(ak))))
        # bit k of the eigenvector index must vary fastest for lower k
        lam = np.kron(np.array([p_zero, 1.0 - p_zero]), lam)
    pos = lam[lam > 0.0]
    return lam, float(-np.dot(pos, np.log(pos)))


def graph_state_vector(graph: GraphSpec) -> np.ndarray:
    """The graph state as a dense vector, built by the CZ-circuit definition.

    Plus states on every vertex, then a controlled-Z per edge; independent of
    the stabilizer machinery on purpose (this module verifies it).
    """
    k = np.arange(1 << graph.n)
    psi = np.ones(1 << graph.n) / math.sqrt(1 << graph.n)
    for u, v in graph.edges:
        psi = psi * (1 - 2 * (((k >> u) & 1) & ((k >> v) & 1)))
    return psi.astype(complex)


def _dephasing_rate(n: int, gamma: float) -> np.ndarray:
    """Rate matrix R with (gamma/2) sum_i (Z_i rho Z_i - rho) = R o rho (elementwise).

    Z_i is diagonal with +-1 entries z_i, so Z_i rho Z_i = (z_i z_i^T) o rho and
    R = (gamma/2) sum_i (z_i z_i^T - 1): real, symmetric, zero on the diagonal.
    """
    k = np.arange(1 << n)
    rate = np.zeros((1 << n, 1 << n))
    for i in range(n):
        z = 1.0 - 2.0 * ((k >> i) & 1)
        rate += np.outer(z, z) - 1.0
    return (gamma / 2.0) * rate


def _rk4_step(rho: np.ndarray, rate: np.ndarray, dt: float) -> np.ndarray:
    k1 = rate * rho
    k2 = rate * (rho + 0.5 * dt * k1)
    k3 = rate * (rho + 0.5 * dt * k2)
    k4 = rate * (rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def master_equation_evolve(
    graph: GraphSpec, gamma: float, t: float, steps: int | None = None
) -> np.ndarray:
    """Integrate drho/dt = (gamma/2) sum_i (Z_i rho Z_i - rho) from the pure graph state.

    Classic fourth-order Runge-Kutta with fixed step, at least 1000 steps per
    unit of gamma*t (the default honors that floor).  The right-hand side is
    the elementwise product with the rate matrix of :func:`_dephasing_rate`.
    That matrix is real symmetric with a zero diagonal and the initial state
    is real symmetric, so every iterate is exactly Hermitian and keeps its
    diagonal, hence its trace, exactly; no symmetrization is needed.  Since
    everything is real, the integration runs in real arithmetic, which gives
    the real parts complex arithmetic would, bit for bit; the result is
    returned as a complex matrix.

    gamma*t is capped at ``MAX_GAMMA_T`` = 30, which bounds the default step
    count by 30,000.  Past gamma*t = ln(1e8) ~ 18.4 every off-diagonal
    coefficient exp(-gamma*t*w), w >= 1, is below the 1e-8 integrator
    tolerance, so longer runs add only time; the cap leaves room for
    full-dephasing checks that want exp(-gamma*t) below 1e-10.
    """
    if graph.n > DENSE_CAP:
        raise DenseCapExceeded(graph.n, DENSE_CAP, "master-equation integration")
    if gamma < 0.0 or t < 0.0:
        raise ValueError("gamma and t must be nonnegative")
    gt = gamma * t
    if not gt <= MAX_GAMMA_T:
        raise ValueError(f"gamma*t = {gt} above the integrator's bound {MAX_GAMMA_T}")
    floor = max(1, math.ceil(1000.0 * gt))
    if steps is None:
        steps = max(100, floor)
    elif steps < floor:
        raise ValueError(f"steps = {steps} below accuracy floor {floor} (1000 per unit gamma*t)")
    psi = graph_state_vector(graph).real
    rho = np.outer(psi, psi)
    if gt != 0.0:
        rate = _dephasing_rate(graph.n, gamma)
        dt = t / steps
        for _ in range(steps):
            rho = _rk4_step(rho, rate, dt)
    return rho.astype(complex)


def _qp_gap(record: MeasurementRecord) -> float:
    """Closed-form p_min minus the numeric QP optimum (signed)."""
    return min_purity(record).p_min - qp_min_purity(record).objective


def instance_gap(kind: str, n: int, x) -> float:
    """Deviation of one closed form from its numeric check; compare with ``TOLERANCES[kind]``.

    ``x`` is the expectation list a (n numbers in [0, 1]) for ``"qp"`` and
    ``"entropy"``, and gamma*t for ``"integrator"``.  The deviation is
    |p_min - QP optimum|, |S_max - numeric maximum entropy|, or the largest
    coefficient error of the integrated dephased path-n, respectively.
    """
    if kind == "integrator":
        graph = GraphSpec.preset(f"path-{n}")
        rho = master_equation_evolve(graph, gamma=1.0, t=x)
        return float(np.abs(twirl(rho, graph).values - dephased_coefficients(graph, x).values).max())
    record = MeasurementRecord(n, x)
    if kind == "qp":
        return abs(_qp_gap(record))
    return abs(estimate_entropy(record).s_max - max_entropy_numeric(record)[1])


def _optimality_floor(n: int) -> float:
    # closed form is the true optimum when every a_k >= n/(n+2) (see estimator)
    return max(0.7, n / (n + 2))


def run_oracle_trials(trials: int, n_min: int, n_max: int, seed: int) -> dict:
    """Randomized closed-form vs numeric comparisons; returns the summary.

    ``summary["failure"]`` is the first breaching instance (a replayable document) or None.
    """
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(TOLERANCES, 0.0)
    failures = {}

    def note(kind: str, n: int, x) -> None:
        gap = instance_gap(kind, n, x)
        if gap > worst[kind]:
            worst[kind] = gap
            if gap > TOLERANCES[kind]:
                key = "gamma_t" if kind == "integrator" else "a"
                failures.setdefault(kind, {"kind": kind, "n": n, key: x, "gap": gap})

    band = {"count": 0, "max_closed_minus_qp": 0.0, "qp_above_closed": 0}
    for trial in range(trials):
        n = n_min + trial % (n_max - n_min + 1)
        a = rng.uniform(_optimality_floor(n), 1.0, size=n).tolist()
        note("qp", n, a)
        note("entropy", n, a)

        # informational probe: feasible records outside the optimality domain
        lo = rng.uniform(0.0, 0.45, size=n)
        probe = 1.0 - lo * (2.0 / max(1.0, lo.sum()))  # keeps sum(a) >= n - 2
        probe = np.clip(probe, 0.0, 1.0)
        probe_record = MeasurementRecord(n, probe)
        if not closed_form_is_optimal(probe_record):
            band["count"] += 1
            diff = _qp_gap(probe_record)
            band["max_closed_minus_qp"] = max(band["max_closed_minus_qp"], diff)
            if diff < -1e-9:
                band["qp_above_closed"] += 1

    integ_ns = [n for n in range(n_min, n_max + 1) if n <= 4]
    gamma_ts = [0.05, 0.1, 0.5] if trials > 0 else []
    for n in integ_ns:
        for gt in gamma_ts:
            note("integrator", n, gt)

    summary = {"trials": trials, "n_min": n_min, "n_max": n_max, "seed": seed, "suboptimal_band": band}
    for kind, tolerance in TOLERANCES.items():
        key = "max_abs_dev" if kind == "integrator" else "max_abs_gap"
        summary[kind] = {key: worst[kind], "tolerance": tolerance, "ok": worst[kind] <= tolerance}
    summary["integrator"].update(path_sizes=integ_ns, gamma_t_values=gamma_ts)
    summary["ok"] = all(summary[kind]["ok"] for kind in TOLERANCES)
    summary["failure"] = next((failures[kind] for kind in TOLERANCES if kind in failures), None)
    return summary
