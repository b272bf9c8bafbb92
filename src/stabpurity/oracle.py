"""Brute-force numeric verifiers for the closed-form estimators.

Everything here trades efficiency for independence: the quadratic program is
solved by alternating projections in the full 2^n eigenvalue space, the
maximum-entropy problem by one-dimensional root finding, and the dephasing
channel by Runge-Kutta integration of the dense density matrix's master
equation, one scalar float run per nonzero Hamming distance between
the entry's row and column with the sign of the initial entry restored exactly.
None of these paths share formulas with the estimator module they are used
to check.

Like the estimator, both solvers read every a_k as |a_k| (flipping K_k -> -K_k
turns |G> into the local-unitary equivalent Z_k|G>, which flips bit k of every
index), so the spectra they return refer to the sign-normalized generators.

The purity QP is run in the eigenvalue basis, where positivity is the
nonnegative orthant and each measured expectation is a single-bit parity sum:

    minimize sum_j lambda_j^2
    s.t.     sum_j lambda_j = 1,
             sum_j (-1)^{j_k} lambda_j = |a_k|   (k = 1..n),
             lambda >= 0.

Minimizing the sum of squares over that set is exactly the Euclidean
projection of the origin onto it.  Write B for the (n+1) x 2^n constraint
matrix (Walsh characters, so B B^T = 2^n I) and b = (1, |a|).  The Lagrange
dual of that projection is the concave function of n + 1 coefficients

    D(nu) = b . nu - ||max(B^T nu, 0)||^2 / 2,    grad D(nu) = b - B max(B^T nu, 0),

whose gradient is Lipschitz with constant ||B||^2 = 2^n; the primal point of
nu is x = max(B^T nu, 0).  The loop's sweep is the plain ascent step
nu <- nu + grad D(nu) / 2^n from nu = 0, which is Dykstra's alternating
projections (affine set <-> orthant; Boyle & Dykstra 1986) written in the
dual coefficients.  Each sweep costs two thin matrix-vector products.
Whatever nu the loop is at, the multipliers p = -B^T nu (in the row space of
B) and q = min(B^T nu, 0) (nonpositive, with exact complementarity against
x) make stationarity x + p + q = 0 hold by construction, so

    kkt_residual = ||B x - b||_inf

is the whole KKT system violation of the sweep's point (NotConverged reports it).

Certified polish.  The sweep finds the support of the optimum long before it
settles the last digits, so after every sweep the loop first tries the
exact-on-support step of active-set NNLS (Lawson & Hanson 1974, ch. 23).
With S = {j : (B^T nu)_j > 0} it solves the (n+1) x (n+1) system

    (B_S B_S^T) nu_S = b,    lambda_S = B_S^T nu_S,   lambda = 0 off S,

and accepts lambda only if, each to ``_CERT_TOL`` = 1e-12,

    lambda_S >= 0,    (B^T nu_S)_j <= 0 off S,    B lambda = b (max norm).

Stationarity and complementarity hold by construction, so these three are
the whole KKT system of the QP: the answer is certified from B and b only,
and the certificate does not depend on how the sweep reached S.  A rejected
solve names another support, its own S' = {j : (B^T nu_S)_j >= 0}, and the
check re-solves there: the step iterated as a primal-dual active set method
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002).  A score of
exactly 0 stays in S', so that ties do not cycle: on the mixed 2-qubit record
S = {0, 1, 2} solves to (0, 1/2, 1/2, 0) with score 1 at j = 3, and S' is
the whole optimum support, where {j : score > 0} = {1, 2, 3} would solve back
to {0, 1, 2}.  Records certify from the support after the first sweep,
{j : (B^T b)_j > 0}, most of them after a few re-solves: all 400,000 of the
README's samples did.  The re-solves end at the first certified spectrum,
or when S' = S, when a system is singular, or after n + 1 solves, the dual
dimension.  Then the off-S index of highest score joins S, as in Lawson &
Hanson's outer loop, and the re-solves start over, n + 1 rounds at most
before the next sweep runs.  Ordinary in-domain records can need both: an
n = 7 record certifies after one join, and an n = 5 record declines all
n + 1 rounds of its first sweep and certifies in the second (both are in
the tests).  An a_k just below 1 is the hard case: its tiny mass
(1 - a_k)/2 on bit k = 1 lies along a nearly flat dual direction, so the
sweep's S keeps bit k at 0, where row k of B_S repeats the all-ones row and
the system is singular.  A few rounding units below 1 the joins do not
find that mass either, and the sweep runs to its budget; but within 2^-44
of 1 the mass is below what the certificate can see, so ``qp_min_purity``
removes the generator before the sweep.  A certified lambda depends on its support
alone, so the number of sweeps and solves that found it does not change a
bit of it, and the certified polish is the only way the QP answers.

Cross-check.  ``instance_gap`` scores one instance of a check kind (``qp``,
``entropy`` or ``integrator``) as the deviation of the closed form from its
numeric counterpart, and ``TOLERANCES`` holds the one bound per kind that the
randomized trials (``run_oracle_trials``), the replay of a failing instance
and the printed summary all read.  The solvers above still share no formula
with the estimator; only the scorer calls both and compares them.
"""

import math
from typing import NamedTuple

import numpy as np

from .diagonal import DenseCapExceeded, dephased_coefficients, twirl
from .estimator import MeasurementRecord, estimate_entropy, kkt_certificate, min_purity
from .stabilizer import DENSE_CAP, GraphSpec

#: QP sweep budget.
_MAX_ITER = 10**6
#: Slack of each KKT condition the polished spectrum must meet.
_CERT_TOL = 1e-12
#: Largest gamma*t the master-equation integrator accepts; see master_equation_evolve.
MAX_GAMMA_T = 30.0
#: Largest deviation of a closed form from its numeric check, per check kind.
TOLERANCES = {"qp": 1e-12, "entropy": 1e-12, "integrator": 1e-8}


class NotConverged(Exception):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} iterations (residual {residual:.3g})")


class QpSolution(NamedTuple):
    """The numeric optimum of the purity QP; see ``qp_min_purity`` for the fields."""

    lambda_star: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def _sign_matrix(n: int) -> np.ndarray:
    """Rows: the all-ones vector, then (-1)^{bit k of j} for each k."""
    idx = np.arange(1 << n)
    rows = np.empty((n + 1, 1 << n))
    rows[0] = 1.0
    rows[1:] = 1.0 - 2.0 * ((idx >> np.arange(n)[:, None]) & 1)
    return rows


def qp_min_purity(record: MeasurementRecord) -> QpSolution:
    """Numeric minimum purity over the eigenvalue simplex; see module docstring.

    Deterministic; ``lambda_star`` is over the sign-normalized generators.  An
    |a_k| within 2^-44 of 1 is pinned: it is taken as 1,
    which forces lambda_j = 0 wherever bit k of j is set, so it is removed and
    the rest of the record fills, in ascending order, the indices with every
    pinned bit clear (lambda_0 = 1, in one sweep, if all are pinned).  That is
    safe because 2^-44 (5.7e-14) is far below ``_CERT_TOL``: the pinned
    answer misses the given a_k by at most 2^-44, which the certificate
    cannot tell from its own slack, and on the README's samples it moved the
    objective by 1.6e-13 at most.
    ``iterations`` counts that reduced record's sweeps, one per certification
    check, not its support solves.  ``kkt_residual`` is ||B lambda - b||_inf
    on the full record: the polish's ``_CERT_TOL``, plus at most 2^-44 on a
    pinned row.
    Raises NotConverged past ``_MAX_ITER`` sweeps.  The constraint set is
    never empty: the product spectrum prod_k (1 +- |a_k|)/2 fits it.
    """
    if record.n > DENSE_CAP:
        raise DenseCapExceeded(record.n, "numeric quadratic program")
    full, full_b = _sign_matrix(record.n), np.concatenate(([1.0], np.abs(record.a)))
    free = np.concatenate(([True], full_b[1:] < 1.0 - 2.0**-44))  # sum row, unpinned a_k
    clear = (full[~free] > 0.0).all(axis=0)  # the indices with every pinned bit clear
    # on ``clear`` the free rows are the reduced record's sign matrix, in row-major order
    # (C order fixes the matmul rounding: full[free][:, clear] is F-ordered and moves the goldens)
    rows, b = full[np.ix_(free, clear)], full_b[free]
    dim = rows.shape[1]  # rows are orthogonal with norm^2 = dim
    step_rows, step_b = rows / dim, b / dim
    nu, iterations = np.zeros(len(b)), 0
    while iterations < _MAX_ITER:  # one Dykstra sweep in the dual coefficients (module docstring)
        nu = nu + step_b - step_rows @ np.maximum(rows.T @ nu, 0.0)
        iterations += 1
        scores = rows.T @ nu
        support = scores > 0.0
        for _ in range(len(b)):
            x = _certify(rows, b, support)
            if x is not None:
                lam = np.zeros(1 << record.n)
                lam[clear] = x
                return QpSolution(lam, float(np.dot(lam, lam)), iterations, float(np.abs(full @ lam - full_b).max()))
            # as in Lawson-Hanson's outer loop, the best-scoring eigenvalue off S joins it
            support = support | (scores == np.where(support, -np.inf, scores).max())
    raise NotConverged(iterations, float(np.abs(rows @ np.maximum(rows.T @ nu, 0.0) - b).max()))


def _certify(rows: np.ndarray, b: np.ndarray, support: np.ndarray) -> np.ndarray | None:
    """The first spectrum ``_polish`` certifies on ``support`` or, in turn, on the
    support of each rejected solve; None at a support that solves to itself, a
    singular system or after n + 1 solves."""
    for _ in range(len(b)):
        x, scores = _polish(rows, b, support)
        if x is not None or scores is None or np.array_equal(scores >= 0.0, support):
            return x
        support = scores >= 0.0
    return None


def _polish(
    rows: np.ndarray, b: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The exact solve on ``support``: its spectrum if that meets the KKT system
    (else None), and its scores B^T nu_S; both None if the system is singular."""
    sub = rows[:, support]
    try:
        nu = np.linalg.solve(sub @ sub.T, b)
    except np.linalg.LinAlgError:
        return None, None
    scores = rows.T @ nu
    x = np.where(support, scores, 0.0)
    if (
        x.min() >= -_CERT_TOL
        and np.where(support, 0.0, scores).max() <= _CERT_TOL
        and np.abs(rows @ x - b).max() <= _CERT_TOL
    ):
        return x, scores
    return None, scores


def _solve_tanh(target: float) -> float:
    """Monotone bisection for tanh(theta) = target, target in [0, 1], to a bracket
    at most 1e-15 * max(1, hi) wide (above ulp(hi), so every step shrinks it)."""
    tanh, lo, hi = math.tanh, 0.0, 1.0
    while tanh(hi) < target:
        hi *= 2.0
    while hi - lo > (1e-15 * hi if hi > 1.0 else 1e-15):  # the float 1e-15 * max(1.0, hi)
        mid = 0.5 * (lo + hi)
        if tanh(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def max_entropy_numeric(record: MeasurementRecord) -> tuple[np.ndarray, float]:
    """Maximize -sum lambda ln lambda under the same constraint set as the QP.

    The entropy maximizer has the Gibbs form lambda_j proportional to
    exp(sum_k theta_k (-1)^{j_k}); the constraints decouple into one monotone
    equation tanh(theta_k) = |a_k| per generator, solved by bisection; at
    |a_k| = 1 it stops at theta_k ~ 19.06, where 1/(1 + exp(-2 theta_k)) rounds
    to 1, so that bit is 0.  The entropy is then evaluated directly from the
    assembled 2^n spectrum.
    Returns (lambda_star, s_max), lambda_star over the sign-normalized generators.
    """
    if record.n > DENSE_CAP:
        raise DenseCapExceeded(record.n, "numeric entropy maximization")
    lam = np.array([1.0])
    for ak in map(abs, record.a):
        p_zero = 1.0 / (1.0 + math.exp(-2.0 * _solve_tanh(ak)))
        # bit k of the eigenvector index must vary fastest for lower k: the
        # Kronecker product [p_zero, 1 - p_zero] (x) lam, same products
        lam = (np.array([[p_zero], [1.0 - p_zero]]) * lam).ravel()
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


def _rk4_run(rho, rate, dt: float, steps: int):
    """``steps`` classic RK4 steps of drho/dt = rate * rho (elementwise).

    ``master_equation_evolve`` calls it on Python floats, one Hamming
    distance at a time; the tests call it on dense 2^n x 2^n arrays as the
    reference.  Both run the same IEEE double operations in the same order.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(steps):
        k1 = rate * rho
        k2 = rate * (rho + half * k1)
        k3 = rate * (rho + half * k2)
        k4 = rate * (rho + dt * k3)
        rho = rho + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def master_equation_evolve(
    graph: GraphSpec, gamma: float, t: float, steps: int | None = None
) -> np.ndarray:
    """Integrate drho/dt = (gamma/2) sum_i (Z_i rho Z_i - rho) from the pure graph state.

    Classic fourth-order Runge-Kutta with fixed step, at least 1000 steps per
    unit of gamma*t (the default honors that floor).  Z_i is diagonal with
    +-1 entries, so Z_i rho Z_i - rho is -2 rho where bit i of the row and
    column index differ and 0 elsewhere: the right-hand side is the
    elementwise product R o rho with R_jk = (gamma/2) * (-2 d), d = the
    Hamming distance popcount(j ^ k).  R is real symmetric with a zero
    diagonal and the initial state is real symmetric, so every iterate is
    exactly Hermitian and keeps its diagonal, hence its trace, exactly; no
    symmetrization is needed.  Since everything is real, the integration runs
    in real arithmetic, which gives the real parts complex arithmetic would,
    bit for bit; the result is returned as a complex matrix.

    Because the step is elementwise, each entry evolves on its own.  Every
    amplitude of the CZ-circuit state is the same float 2^(-n/2) up to an
    exact sign, so every entry of rho_0 is +-|psi_0|^2, and the entry's rate
    depends on d alone.  The integration therefore runs once per d = 1..n,
    as a plain Python ``float`` run of :func:`_rk4_run` from |psi_0|^2, and
    the n + 1 ends, with |psi_0|^2 itself at d = 0, are scattered back to
    the 2^n x 2^n matrix by d, each with the sign of rho_0.  That is the same
    matrix as stepping every entry as an array, bit for bit: a numpy
    elementwise operation and the Python float operation are each one
    correctly rounded IEEE double operation, done in the same order;
    round-to-nearest is odd-symmetric, so the run from -|rho_0| is exactly
    the negation of the run from |rho_0|; and multiplying by +-1.0 is exact.
    The rate is (gamma/2) times the float -2d, +0.0 at d = 0 like the dense
    sum of z_i z_i^T - 1 terms, so the d = 0 run would add (dt/6) * 0.0 per
    step and the diagonal keeps |psi_0|^2 without one.  At gamma = 0 every
    rate is -0.0, and at t = 0 every step adds 0.0 times a finite sum, so
    there every run returns |psi_0|^2 and the result is psi psi^T.

    gamma*t is capped at ``MAX_GAMMA_T`` = 30, which bounds the default step
    count by 30,000.  Past gamma*t = ln(1e8) ~ 18.4 every off-diagonal
    coefficient exp(-gamma*t*w), w >= 1, is below the 1e-8 integrator
    tolerance, so longer runs add only time; the cap leaves room for
    full-dephasing checks that want exp(-gamma*t) below 1e-10.  gamma is
    rejected when 6*gamma*n overflows: the largest rate is gamma*n and the
    step's sum k1 + 2 k2 + 2 k3 + k4 reaches up to 6 times a rate times an
    entry, so a finite bound there keeps every intermediate finite.
    """
    if graph.n > DENSE_CAP:
        raise DenseCapExceeded(graph.n, "master-equation integration")
    if gamma < 0.0 or t < 0.0:
        raise ValueError("gamma and t must be nonnegative")
    gt = gamma * t
    if not gt <= MAX_GAMMA_T:
        raise ValueError(f"gamma*t = {gt} above the integrator's bound {MAX_GAMMA_T}")
    if not math.isfinite(6.0 * gamma * graph.n):
        raise ValueError(f"gamma = {gamma} overflows the rates of {graph.n} qubits")
    floor = max(1, math.ceil(1000.0 * gt))
    if steps is None:
        steps = max(100, floor)
    elif steps < floor:
        raise ValueError(f"steps = {steps} below accuracy floor {floor} (1000 per unit gamma*t)")
    psi = graph_state_vector(graph).real
    x, dt = float(psi[0]) * float(psi[0]), t / steps
    ends = np.array([x] + [_rk4_run(x, (gamma / 2.0) * float(-2 * d), dt, steps) for d in range(1, graph.n + 1)])
    k, sign = np.arange(1 << graph.n), np.sign(psi)
    return (np.outer(sign, sign) * ends[np.bitwise_count(k[:, None] ^ k)]).astype(complex)


def _qp_gap(record: MeasurementRecord) -> float:
    """Closed-form p_min minus the numeric QP optimum (signed)."""
    return min_purity(record).p_min - qp_min_purity(record).objective


def instance_gap(kind: str, n: int, x) -> float:
    """Deviation of one closed form from its numeric check; compare with ``TOLERANCES[kind]``.

    ``x`` is the expectation list a (n numbers in [-1, 1], read as |a_k|) for
    ``"qp"`` and ``"entropy"``, and gamma*t for ``"integrator"``.  The deviation is
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
        worst[kind] = max(worst[kind], gap)
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
        # deficits sum to at most 1.99, so rounding cannot take sum(a) below n - 2
        probe_record = MeasurementRecord(n, 1.0 - lo * (1.99 / max(0.995, lo.sum())))
        if not kkt_certificate(probe_record).valid:
            band["count"] += 1
            diff = _qp_gap(probe_record)
            band["max_closed_minus_qp"] = max(band["max_closed_minus_qp"], diff)
            if diff < -_CERT_TOL:
                band["qp_above_closed"] += 1

    integ_ns = list(range(n_min, n_max + 1))
    gamma_ts = [0.05, 0.1, 0.5] if trials > 0 else []
    for n in integ_ns:
        for gt in gamma_ts:
            note("integrator", n, gt)

    summary = {"trials": trials, "n_min": n_min, "n_max": n_max, "seed": seed, "suboptimal_band": band}
    for kind, tolerance in TOLERANCES.items():
        key = "max_abs_dev" if kind == "integrator" else "max_abs_gap"
        summary[kind] = {key: worst[kind], "tolerance": tolerance, "ok": kind not in failures}
    summary["integrator"].update(path_sizes=integ_ns, gamma_t_values=gamma_ts)
    summary["ok"] = all(summary[kind]["ok"] for kind in TOLERANCES)
    summary["failure"] = next((failures[kind] for kind in TOLERANCES if kind in failures), None)
    return summary
