"""Shared record/graph samplers for the test suite."""

import inspect
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from stabpurity.diagonal import Spectrum, coefficients, walsh_hadamard_inplace
from stabpurity.estimator import MeasurementRecord, closed_form_is_optimal
from stabpurity.stabilizer import GraphSpec


def random_graph(rng, n: int) -> GraphSpec:
    """Uniformly random simple graph on n labeled vertices."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return GraphSpec(n, edges)


def _within_budget(deficits: np.ndarray, budget: float) -> MeasurementRecord:
    """Record a = 1 - deficits, with the deficits rescaled so that the exact sum of
    1 - a_k, read from the rounded a, is at most budget (budget >= 0).

    Rescaling to budget itself can round that sum just past it; each retry
    shrinks the deficits further, doubling the shrink up to all of them.
    """
    total = deficits.sum()
    if total > budget:
        deficits = deficits * (budget / total)
    a, shrink = 1.0 - deficits, 2.0**-40
    while math.fsum((budget, -a.size, *a)) < 0.0:
        a, shrink = 1.0 - deficits * (1.0 - shrink), 2.0 * shrink
    return MeasurementRecord(a.size, a)


def feasible_record(rng, n: int) -> MeasurementRecord:
    """Record with a in [0, 1]^n and sum(a) >= n - 2 (the hard feasibility gate).

    Draws deficits 1 - a_k and rescales them into a random budget <= 2, which
    covers the whole feasible band including records where the closed form is
    only an upper bound.
    """
    deficits = rng.uniform(0.0, 1.0, size=n)
    return _within_budget(deficits, 2.0 * rng.uniform(0.0, 1.0))


@st.composite
def feasible_records(draw, max_n: int) -> MeasurementRecord:
    """Hypothesis strategy for :func:`feasible_record` at n = 1..max_n."""
    n = draw(st.integers(1, max_n))
    deficits = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return _within_budget(np.array(deficits), 2.0 * draw(st.floats(0.0, 1.0)))


@st.composite
def boundary_records(draw, max_n: int, width: float) -> MeasurementRecord:
    """Records at n = 2..max_n whose optimality margin sum(a) + a_(1) + a_(2) - n
    lies within +-width of 0 (a_(1), a_(2) the two smallest).

    With deficits d_k = 1 - a_k the margin is 2 - sum(d) - (two largest d), so
    weights w in [0.01, 1] scaled by (2 - t) / (sum(w) + two largest w) put it
    at t up to rounding, with every a_k in (0, 1] and lambda_0 > 0.
    """
    n = draw(st.integers(2, max_n))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    t = draw(st.floats(-width, width))
    return MeasurementRecord(n, 1.0 - w * ((2.0 - t) / (w.sum() + np.sort(w)[-2:].sum())))


@st.composite
def feasibility_edge_records(draw, max_n: int) -> MeasurementRecord:
    """Records at n = 3..max_n with deficits 1 - a_k rescaled to sum to 2, which puts
    lambda_0 at 0 up to rounding.

    Weights w in [0.5, 1] keep each deficit 2 w / sum(w) at most 1, since any
    two weights sum to at least the third.
    """
    n = draw(st.integers(3, max_n))
    w = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
    return MeasurementRecord(n, 1.0 - np.minimum(w * (2.0 / w.sum()), 1.0))


@st.composite
def pair_edge_records(draw, max_n: int) -> MeasurementRecord:
    """Records at n = 2..max_n whose first two expectations sum to 1 up to a few ulps."""
    x = draw(st.floats(0.0, 1.0))
    y = 1.0 - x
    for _ in range(draw(st.integers(0, 2))):
        y = math.nextafter(y, draw(st.sampled_from([0.0, 1.0])))
    rest = draw(st.lists(st.floats(0.75, 1.0), max_size=max_n - 2))
    return MeasurementRecord(2 + len(rest), [x, y, *rest])


def exact_verdicts(record: MeasurementRecord, graph: GraphSpec | None = None) -> tuple[bool, bool, bool]:
    """(feasible, optimal, pairs_ok) of a sign-normalized record in ``Fraction`` arithmetic.

    The test suite's reference for the estimator's gates: lambda_0 >= 0, that
    is sum(a) >= n - 2; the multiplier condition sum(a) + a_(1) + a_(2) >= n
    (vacuous at n = 1); and a_j + a_k >= 1 over all pairs, or over the edges
    of ``graph``.
    """
    a = [Fraction(x) for x in record.a]
    n = len(a)
    pairs = itertools.combinations(range(n), 2) if graph is None else graph.edges
    return (
        sum(a) >= n - 2,
        n < 2 or sum(a) + sum(sorted(a)[:2]) >= n,
        all(a[u] + a[v] >= 1 for u, v in pairs),
    )


def optimal_record(rng, n: int) -> MeasurementRecord:
    """Record inside the closed form's optimality domain.

    All a_k >= n/(n+2) forces sum(a) + (two smallest) >= n, the multiplier
    nonnegativity condition, so the closed form equals the true minimum.
    """
    floor = max(0.7, n / (n + 2))
    return MeasurementRecord(n, rng.uniform(floor, 1.0, size=n))


def suboptimal_record(rng, n: int) -> MeasurementRecord:
    """Feasible record violating the multiplier condition (n >= 2)."""
    assert n >= 2
    while True:
        record = feasible_record(rng, n)
        if not closed_form_is_optimal(record):
            return record


def infeasible_record(rng, n: int) -> MeasurementRecord:
    """Record with a in [0, 1]^n and sum(a) < n - 2 (n >= 3): outside the
    closed form's feasibility gate, but the QP's constraint set is not empty."""
    assert n >= 3
    while True:
        a = rng.uniform(0.0, 1.0, size=n)
        if a.sum() < n - 2:
            return MeasurementRecord(n, a)


def random_density_matrix(rng, dim: int) -> np.ndarray:
    """Haar-ish random full-rank density matrix."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def dense_dephasing_rate(n: int, gamma: float) -> np.ndarray:
    """Rate matrix R with (gamma/2) sum_i (Z_i rho Z_i - rho) = R o rho (elementwise).

    The dense reference for ``oracle.master_equation_evolve``, which forms
    the entries as -gamma * popcount(j ^ k) instead.  Z_i is diagonal with
    +-1 entries z_i, so Z_i rho Z_i = (z_i z_i^T) o rho and
    R = (gamma/2) sum_i (z_i z_i^T - 1): real, symmetric, zero on the diagonal.
    """
    k = np.arange(1 << n)
    rate = np.zeros((1 << n, 1 << n))
    for i in range(n):
        z = 1.0 - 2.0 * ((k >> i) & 1)
        rate += np.outer(z, z) - 1.0
    return (gamma / 2.0) * rate


def rk4_reference(rho, rate, dt: float, steps: int):
    """``steps`` classic fourth-order Runge-Kutta steps of drho/dt = rate o rho.

    The test suite's own integrator, written out apart from ``oracle._rk4_run``:
    dense runs of it pin the bits of ``master_equation_evolve``, so a change to
    the oracle's arithmetic (say the order of the k sum) fails them.
    """
    for _ in range(steps):
        k1 = rate * rho
        k2 = rate * (rho + 0.5 * dt * k1)
        k3 = rate * (rho + 0.5 * dt * k2)
        k4 = rate * (rho + dt * k3)
        rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def bisect_tanh_reference(target: float) -> float:
    """Bisection for tanh(theta) = target, target in [0, 1]: the test suite's copy.

    Written out apart from ``oracle._solve_tanh``, with ``math.tanh`` and the
    stop ``1e-15 * max(1.0, hi)``, it pins the bits of every max-entropy
    parameter the oracle computes.
    """
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
    return 0.5 * (lo + hi)


def kron_group(graph: GraphSpec) -> list[np.ndarray]:
    """The 2^n stabilizer group elements S_i as dense matrices built with np.kron.

    Generator k is X on vertex k and Z on each neighbor, with qubit 0 the
    rightmost Kronecker factor (the fastest-varying index bit); S_i is the
    product of the generators picked by the bits of i.  No CZ sign and no
    package code enters: this is the test suite's definition of the group.
    """
    x, z, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(2)
    gens = []
    for k in range(graph.n):
        neighbors = {v for e in graph.edges if k in e for v in e if v != k}
        m = np.eye(1)
        for j in range(graph.n):
            m = np.kron(x if j == k else z if j in neighbors else eye, m)
        gens.append(m)
    group = []
    for i in range(1 << graph.n):
        s = np.eye(1 << graph.n)
        for k in range(graph.n):
            if (i >> k) & 1:
                s = s @ gens[k]
        group.append(s)
    return group


def kron_stabilizer_coefficients(rho: np.ndarray, graph: GraphSpec) -> np.ndarray:
    """tr(rho S_i) for every group element of :func:`kron_group`."""
    return np.array([np.trace(rho @ s).real for s in kron_group(graph)])


def kron_assemble(c, graph: GraphSpec) -> np.ndarray:
    """The dense state 2^{-n} sum_i c[i] S_i over :func:`kron_group`."""
    return sum(ci * s for ci, s in zip(c, kron_group(graph))) / (1 << graph.n)


def random_physical_coeffs(rng, n: int) -> np.ndarray:
    """Coefficient vector of a random stabilizer-diagonal state (physical by construction)."""
    lam = rng.dirichlet(np.ones(1 << n))
    c = lam.copy()
    walsh_hadamard_inplace(c)
    c[0] = 1.0  # exact; the transform leaves sum(lam) = 1 up to rounding
    return c


def dense_kkt(record: MeasurementRecord, nu) -> tuple[np.ndarray, float, float]:
    """Full 2^n inequality multipliers and both KKT residuals for the given nu.

    The dense reference for ``kkt_certificate`` (n <= DENSE_CAP): nu is
    spread onto the zero and single-bit indices, mu = 2 lambda + A nu with A
    the unnormalized sign matrix, and the residuals are
    max |(2/2^n) c - (1/2^n) A mu + nu| (stationarity) and max |mu * lambda|
    (complementarity), with c the coefficient vector of the closed-form lambda.
    Returns (mu, stationarity residual, complementarity residual).
    """
    n, a = record.n, np.asarray(record.a)
    dim = 1 << n
    single_idx = 1 << np.arange(n)
    lam = np.zeros(dim)
    lam[0] = (a.sum() - n + 2.0) / 2.0
    lam[single_idx] = (1.0 - a) / 2.0
    c = coefficients(Spectrum(n, lam)).values

    nu_full = np.zeros(dim)
    nu_full[0] = nu[0]
    nu_full[single_idx] = nu[1:]
    mu = nu_full.copy()
    walsh_hadamard_inplace(mu)
    mu += 2.0 * lam

    a_mu = mu.copy()
    walsh_hadamard_inplace(a_mu)
    stationarity = (2.0 / dim) * c + nu_full - a_mu / dim
    return mu, float(np.abs(stationarity).max()), float(np.abs(mu * lam).max())


def line_of(fn, text: str) -> int:
    """The line number of the one source line of ``fn`` that reads ``text``, stripped."""
    lines, start = inspect.getsourcelines(fn)
    (offset,) = [i for i, line in enumerate(lines) if line.strip() == text]
    return start + offset


def lines_run(fn, call, *args) -> tuple:
    """``call(*args)`` and the set of line numbers it ran in the body of ``fn``."""
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is fn.__code__ else None)
    try:
        return call(*args), hit
    finally:
        sys.settrace(previous)
