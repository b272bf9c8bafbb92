"""Acceptance suite: one test per shipping criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 8 checks the one-standard-error bars against the coverage their
construction has.  Shifting all three generator expectations together by one
standard error covers the true p_min with probability
p_cov = P(|Z| <= sqrt(3)) = erf(sqrt(3/2)) ~ 0.917, by the propagation argument
spelled out in the test.  The number of covering seeds out of 100 must lie in
the two-sided acceptance region [k_lo, k_hi] of Binomial(100, p_cov) at a total
false-alarm rate of at most 1e-3, so bars that are too narrow and bars that are
too wide both fail.
"""

import math
import time

import numpy as np

from stabpurity.diagonal import CoeffVector, coefficients, dephased_coefficients, eigenvalues, purity, twirl
from stabpurity.estimator import MeasurementRecord, estimate_entropy, kkt_certificate, min_purity
from stabpurity.oracle import master_equation_evolve, max_entropy_numeric, qp_min_purity
from stabpurity.simulator import reference_table, sample_measurements
from stabpurity.stabilizer import GraphSpec
from support import dense_kkt, feasible_record, optimal_record

QP_SEED = 1009  # shared by criteria 3 and 4: same records for both
FALSE_ALARM = 1e-3  # criterion 8: total probability that correct bars fail


def verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def binomial_acceptance_region(trials, p, false_alarm):
    """Equal-tailed region [k_lo, k_hi] of Binomial(trials, p).

    Each tail outside the region has probability at most false_alarm / 2.
    """
    pmf = [math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k) for k in range(trials + 1)]
    k_lo, below = 0, pmf[0]
    while below <= false_alarm / 2:
        k_lo += 1
        below += pmf[k_lo]
    k_hi, above = trials, pmf[trials]
    while above <= false_alarm / 2:
        k_hi -= 1
        above += pmf[k_hi]
    return k_lo, k_hi


def shared_qp_records():
    rng = np.random.default_rng(QP_SEED)
    return [optimal_record(rng, n) for n in (2, 3, 4) for _ in range(100)]


def test_criterion_1_purity_table():
    start = time.perf_counter()
    rows = {r["n"]: r["purity"] for r in reference_table()["rows"]}
    elapsed = time.perf_counter() - start
    expected = {2: (0.8269, 0.8233, 0.0044), 3: (0.7520, 0.7417, 0.0137), 4: (0.6838, 0.6646, 0.0281)}
    ok = elapsed < 1.0
    for n, (exact, estimated, deviation) in expected.items():
        got = (rows[n]["exact_4dp"], rows[n]["estimated_4dp"], rows[n]["deviation_4dp"])
        ok = ok and got == (exact, estimated, deviation)
    verdict(1, "purity table reproduction at gamma*t = 0.1", ok, f"{elapsed:.3f}s")


def test_criterion_2_entropy_table():
    start = time.perf_counter()
    rows = {r["n"]: r["entropy"] for r in reference_table()["rows"]}
    elapsed = time.perf_counter() - start
    expected = {2: (0.3827, 0.3803, 0.0063), 3: (0.5740, 0.5667, 0.0127), 4: (0.7653, 0.7505, 0.0193)}
    ok = elapsed < 1.0
    for n, (exact, estimated, deviation) in expected.items():
        got = (rows[n]["exact_4dp"], rows[n]["estimated_4dp"], rows[n]["deviation_4dp"])
        ok = ok and got == (exact, estimated, deviation)
    verdict(2, "entropy table reproduction at gamma*t = 0.1", ok, f"{elapsed:.3f}s")


def test_criterion_3_purity_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for record in shared_qp_records():
        gap = abs(min_purity(record).p_min - qp_min_purity(record).objective)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    verdict(
        3,
        "closed-form p_min equals QP optimum on 300 records",
        worst <= 1e-6 and elapsed < 120.0,
        f"max gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_kkt_certificates():
    worst_mu = 0.0
    worst_res = 0.0
    all_valid = True
    for record in shared_qp_records():
        cert = kkt_certificate(record)
        all_valid = all_valid and cert.valid
        worst_mu = min(worst_mu, cert.min_mu)
        _, stationarity, complementarity = dense_kkt(record, cert.nu)
        worst_res = max(worst_res, stationarity, complementarity)

    # two-generator multiplier construction, checked exactly at dyadic inputs
    a1, a2 = 0.75, 0.5
    cert = kkt_certificate(MeasurementRecord(2, np.array([a1, a2])))
    lam00 = (a1 + a2) / 2
    exact = (
        cert.nu[1] == 0.5 * (1 - 2 * a1 - a2)
        and cert.nu[2] == 0.5 * (1 - 2 * a2 - a1)
        and cert.nu[0] == -2 * lam00 - cert.nu[1] - cert.nu[2]
    )
    verdict(
        4,
        "certificates valid on the same 300 records, two-qubit multipliers exact",
        all_valid and worst_mu >= -1e-9 and worst_res <= 1e-9 and exact,
        f"min mu {worst_mu:.1e}, max residual {worst_res:.1e}",
    )


def test_criterion_5_entropy_oracle_equivalence():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for trial in range(120):
        n = 1 + trial % 4
        record = feasible_record(rng, n)
        _, s_numeric = max_entropy_numeric(record)
        worst = max(worst, abs(estimate_entropy(record).s_max - s_numeric))
    verdict(5, "closed-form S_max equals numeric maximum entropy", worst <= 1e-6,
            f"max gap {worst:.2e}")


def test_criterion_6_dephasing_closed_form_vs_integrator():
    worst = 0.0
    for n in (2, 3, 4):
        graph = GraphSpec.preset(f"path-{n}")
        for gt in (0.05, 0.1, 0.5):
            rho = master_equation_evolve(graph, gamma=1.0, t=gt)
            closed = dephased_coefficients(graph, gt)
            worst = max(worst, float(np.abs(twirl(rho, graph).values - closed.values).max()))
    verdict(6, "decay law matches the master-equation integrator", worst <= 1e-8,
            f"max coefficient deviation {worst:.2e}")


def test_criterion_7_transform_properties():
    rng = np.random.default_rng(3001)
    ok = True
    worst = 0.0
    for n in range(1, 11):
        raw = rng.uniform(-1.0, 1.0, size=1 << n)
        raw[0] = 1.0
        vec = CoeffVector(n, raw)
        spec = eigenvalues(vec)
        parseval = abs(purity(vec) - float(np.dot(spec.values, spec.values)))
        round_trip = float(np.abs(coefficients(spec).values - raw).max())
        worst = max(worst, parseval, round_trip)
        ok = ok and parseval <= 1e-12 and round_trip <= 1e-12

    big = rng.uniform(-1.0, 1.0, size=1 << 20)
    big[0] = 1.0
    start = time.perf_counter()
    eigenvalues(CoeffVector(20, big))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    verdict(7, "Parseval and involution to 1e-12 (n <= 10), n = 20 transform time",
            ok, f"worst identity error {worst:.2e}, n=20 in {elapsed:.3f}s")


def test_criterion_8_error_bar_sandwich():
    # Protocol: n = 3 path, gamma*t = 0.1, 10^4 shots per generator, seeds 0..99,
    # one-standard-error bars. Coverage analysis: p_min responds to each a_k with
    # weight w_k = lambda_0 - (1 - a_k)/2, equal for the three generators of the
    # dephased path; the sampling errors e_k are independent with standard
    # deviation sigma ~ Delta a_k, equal too. The bars shift every a_k by sigma
    # together, so the sandwich holds iff |sum_k w e_k| <= 3 w sigma, and
    # sum_k w e_k has standard deviation sqrt(3) w sigma: the event has
    # probability P(|Z| <= sqrt(3)) = erf(sqrt(3/2)) ~ 0.917.
    trials = 100
    p_cov = math.erf(math.sqrt(3 / 2))
    k_lo, k_hi = binomial_acceptance_region(trials, p_cov, FALSE_ALARM)
    graph = GraphSpec.preset("path-3")
    a_true = dephased_coefficients(graph, 0.1).values[1 << np.arange(3)]
    exact = MeasurementRecord(3, a_true)
    p_true = min_purity(exact).p_min
    hits = 0
    for seed in range(trials):
        sampled = sample_measurements(a_true, 10**4, seed)
        est = min_purity(sampled)
        if est.p_lower is not None and est.p_lower <= p_true <= est.p_upper:
            hits += 1
    verdict(
        8,
        "1-sigma error bars sandwich the true p_min at their derived coverage "
        f"(two-sided binomial region, false alarm <= {FALSE_ALARM:g})",
        k_lo <= hits <= k_hi,
        f"{hits}/{trials} seeds; predicted coverage {p_cov:.4f}, "
        f"accepted [{k_lo}, {k_hi}]",
    )


def test_criterion_9_bound_ordering():
    rng = np.random.default_rng(4004)
    violations = 0
    for trial in range(1000):
        n = 1 + trial % 6
        record = feasible_record(rng, n)
        ent = estimate_entropy(record)
        if ent.s_lower > ent.s_max + 1e-12:
            violations += 1
    verdict(9, "entropy lower bound never exceeds the exact maximum", violations == 0,
            f"{violations} violations in 1000 records")
