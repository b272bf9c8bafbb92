"""Correctness gate: independent numpy recomputation of every checked output.

Nothing here imports stabpurity.  Each ``check_*`` function returns None when
the output is right and a one-line description of the mismatch otherwise.
The tolerances are fixed here, with the values the CLI's ``oracle-check``
uses today, so that a later change to the package cannot loosen the gate.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

#: Relative tolerance (absolute below 1) on p_min, s_lower and s_max.
VALUE_TOL = 1e-12
#: Relative float64 rounding allowed in sum|a|.  lambda_0 = (sum|a| - n + 2)/2
#: cancels the leading digits of the sum: at n = 10^4 numpy's pairwise sum and
#: an exact sum already give p_min values 1e-12 apart.
SUM_TOL = 1e-13
QP_TOLERANCE = 1e-6
ENTROPY_TOLERANCE = 1e-6
INTEGRATOR_TOLERANCE = 1e-8
#: Certificates are computed up to this n and skipped above it.
DENSE_CAP = 10


class Expected(NamedTuple):
    n: int
    infeasible: bool
    optimal: bool
    p_min: Optional[float]
    s_lower: Optional[float]
    s_max: float
    #: Absolute tolerance per checked value: VALUE_TOL plus the value's
    #: sensitivity to sum|a| times the rounding allowed in that sum.
    tol: dict


def _xlogx(v: np.ndarray) -> np.ndarray:
    safe = np.where(v > 0.0, v, 1.0)
    return np.where(v > 0.0, v * np.log(safe), 0.0)


def expected(a) -> Expected:
    """Closed-form bounds for a raw (signed) record, from the paper's formulas.

    The least-purity spectrum is lambda_0 = (sum|a| - n + 2)/2 plus the n
    values (1 - |a_k|)/2; the record is infeasible iff sum|a| < n - 2, and the
    closed form is optimal iff sum|a| + (two smallest |a_k|) >= n.
    """
    x = np.abs(np.asarray(a, dtype=float))
    n = x.size
    total = math.fsum(x)
    p = (1.0 + x) / 2.0
    s_max = -math.fsum(_xlogx(p) + _xlogx(1.0 - p))
    optimal = n < 2 or total + math.fsum(np.partition(x, 1)[:2]) >= n
    tol = {"s_max": VALUE_TOL * max(1.0, s_max)}
    if total < n - 2:
        return Expected(n, True, False, None, None, s_max, tol)
    lam0 = (total - n + 2.0) / 2.0
    singles = (1.0 - x) / 2.0
    p_min = lam0 * lam0 + math.fsum(singles * singles)
    s_lower = -(float(_xlogx(np.array(lam0))) + math.fsum(_xlogx(singles)))
    rounding = SUM_TOL * total
    tol["p_min"] = VALUE_TOL * max(1.0, p_min) + lam0 * rounding
    slope = abs(math.log(lam0) + 1.0) / 2.0 if lam0 > 0.0 else math.inf  # |d s_lower / d sum|a||
    tol["s_lower"] = VALUE_TOL * max(1.0, s_lower) + slope * rounding
    return Expected(n, False, optimal, p_min, s_lower, s_max, tol)


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def check_estimate(a, exit_code: int, doc: Optional[dict], with_certificate: bool) -> Optional[str]:
    """Judge one estimate outcome: exit code 0 with a report, or 2 with an error document."""
    want = expected(a)
    if exit_code == 2:
        if not want.infeasible:
            return f"n={want.n}: reported infeasible but sum|a| >= n - 2"
        if not doc or doc.get("error") != "infeasible":
            return f"n={want.n}: exit 2 without the infeasible error document"
        return None
    if exit_code != 0:
        return f"n={want.n}: undocumented exit code {exit_code}"
    if want.infeasible:
        return f"n={want.n}: report produced for an infeasible record"
    if not isinstance(doc, dict):
        return f"n={want.n}: exit 0 without a JSON report"
    if doc.get("n") != want.n:
        return f"report n={doc.get('n')!r}, expected {want.n}"
    for key in ("p_min", "s_lower", "s_max"):
        if not _close(doc.get(key), getattr(want, key), want.tol[key]):
            return f"n={want.n}: {key}={doc.get(key)!r}, expected {getattr(want, key)!r}"
    if with_certificate:
        cert = doc.get("certificate") or {}
        valid = want.optimal if want.n <= DENSE_CAP else None
        if cert.get("valid") is not valid:
            return f"n={want.n}: certificate valid={cert.get('valid')!r}, expected {valid!r}"
    return None


def _binary_entropy(p: float) -> float:
    return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0.0)


def check_simulation(n: int, gamma_t: float, shots, seed: int, measurement: dict, truth: dict) -> Optional[str]:
    """Judge the measurement and truth files written by ``simulate``.

    Exact records hold e^{-gamma t} per generator; sampled ones hold the
    sample means of the documented seeded PCG64 binomial draws.
    """
    a_true = np.full(n, math.exp(-gamma_t))
    if shots == "exact":
        a_want = a_true
    else:
        plus = np.random.default_rng(seed).binomial(shots, (1.0 + a_true) / 2.0)
        a_want = 2.0 * plus / shots - 1.0
    a_got = measurement.get("a")
    if measurement.get("n") != n or not isinstance(a_got, list) or len(a_got) != n:
        return f"simulate n={n}: measurement has n={measurement.get('n')!r}"
    if not np.allclose(a_got, a_want, rtol=0.0, atol=VALUE_TOL):
        return f"simulate n={n}: sampled expectations differ from the seeded draw"
    purity = ((1.0 + math.exp(-2.0 * gamma_t)) / 2.0) ** n
    entropy = n * _binary_entropy((1.0 + math.exp(-gamma_t)) / 2.0)
    if not _close(truth.get("purity_exact"), purity, VALUE_TOL):
        return f"simulate n={n}: purity_exact={truth.get('purity_exact')!r}, expected {purity!r}"
    if not _close(truth.get("entropy_exact"), entropy, VALUE_TOL * max(1.0, entropy)):
        return f"simulate n={n}: entropy_exact={truth.get('entropy_exact')!r}, expected {entropy!r}"
    return None


def check_qp(a, objective: float) -> Optional[str]:
    """The numeric minimum purity equals the closed form in its optimality
    domain and lies at or below it in the suboptimal band."""
    want = expected(a)
    if want.optimal and abs(objective - want.p_min) > QP_TOLERANCE:
        return f"qp n={want.n}: {objective!r} vs closed form {want.p_min!r}"
    if not want.optimal and objective > want.p_min + QP_TOLERANCE:
        return f"qp n={want.n}: {objective!r} above closed form {want.p_min!r} in the band"
    return None


def check_maxent(a, s_numeric: float) -> Optional[str]:
    want = expected(a)
    if abs(s_numeric - want.s_max) > ENTROPY_TOLERANCE:
        return f"maxent n={want.n}: {s_numeric!r} vs closed form {want.s_max!r}"
    return None


def check_dephased(n: int, gamma_t: float, coefficients: np.ndarray) -> Optional[str]:
    """Twirled coefficients of the integrated state equal exp(-gamma t popcount(i))."""
    weights = np.array([bin(i).count("1") for i in range(1 << n)], dtype=float)
    dev = float(np.abs(np.asarray(coefficients) - np.exp(-gamma_t * weights)).max())
    if dev > INTEGRATOR_TOLERANCE:
        return f"rk4 n={n} gamma_t={gamma_t}: coefficient deviation {dev:.3g}"
    return None
