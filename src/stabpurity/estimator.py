"""Closed-form purity and entropy bounds from stabilizer-generator measurements.

Given expectation values a_k of the n stabilizer generators of a graph state
(sign-normalized so all a_k >= 0), the least-purity state compatible with the
data is stabilizer-diagonal with coefficients

    c[i] = sum_k i_k a_k - popcount(i) + 1,

whose spectrum consists of lambda_0 = (sum_k a_k - n + 2) / 2, the n values
(1 - a_k) / 2 at the single-bit indices, and zeros elsewhere.  Everything the
estimator reports is therefore O(n); full 2^n vectors are materialized only
for certificate checking under the dense cap.  That spectrum is derived in
one place, :func:`_spectrum`; purity, error bars, entropy and certificate all
read it from there (through :func:`_feasible_spectrum` where the gate below
applies).

The candidate is a valid state iff lambda_0 >= 0, which is the hard
feasibility gate.  It is the true optimum iff every inequality multiplier is
nonnegative, which reduces to lambda_0 >= (largest) + (second largest) of the
single-bit eigenvalues; records failing that condition still get the
closed-form value (a reachable upper bound on the minimum purity) plus a
warning, and the constructed certificate reports the violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .diagonal import CoeffVector, walsh_hadamard_inplace
from .errors import CertificateInvalid, DenseCapExceeded, InfeasibleRecord
from .stabilizer import DENSE_CAP, GraphSpec

#: Certificate acceptance thresholds: residuals below this are floating-point noise.
KKT_TOL = 1e-9
#: Slack on exact arithmetic comparisons (feasibility, optimality boundary).
_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementRecord:
    """Generator expectations a_k with uncertainties and optional shot counts."""

    n: int
    a: np.ndarray
    delta_a: np.ndarray = None
    shots: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one generator")
        a = np.atleast_1d(np.array(self.a, dtype=float))
        if a.shape != (self.n,):
            raise ValueError(f"a must have length {self.n}, got shape {a.shape}")
        if not np.all(np.abs(a) <= 1.0):  # NaN fails this comparison too
            raise ValueError("every a_k must lie in [-1, 1]")
        delta = self.delta_a
        delta = np.zeros(self.n) if delta is None else np.atleast_1d(np.array(delta, float))
        if delta.shape != (self.n,):
            raise ValueError(f"delta_a must have length {self.n}, got shape {delta.shape}")
        if not np.all(delta >= 0.0):
            raise ValueError("uncertainties must be nonnegative")
        a.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "delta_a", delta)
        if self.shots is not None:
            shots = np.atleast_1d(np.array(self.shots, dtype=np.int64))
            if shots.shape != (self.n,) or np.any(shots < 1):
                raise ValueError("shots must be n positive integers")
            shots.setflags(write=False)
            object.__setattr__(self, "shots", shots)


class SpectrumSummary(NamedTuple):
    """O(n) description of the least-purity spectrum."""

    lambda0: float
    singles: tuple
    zero_multiplicity: int


@dataclass(frozen=True)
class PurityEstimate:
    p_min: float
    p_lower: Optional[float]
    p_upper: Optional[float]
    lambda0: float
    spectrum_summary: SpectrumSummary
    warnings: tuple = ()


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers certifying optimality of the closed-form minimizer.

    ``nu`` holds the equality multipliers: nu[0] at the all-zero index,
    nu[k] (k >= 1) at the index with only bit k-1 set.  ``mu`` is the full
    2^n vector of inequality multipliers.
    """

    mu: np.ndarray
    nu: np.ndarray
    stationarity_residual: float
    min_mu: float
    complementarity_residual: float

    @property
    def valid(self) -> bool:
        return (
            self.min_mu >= -KKT_TOL
            and self.stationarity_residual <= KKT_TOL
            and self.complementarity_residual <= KKT_TOL
        )


@dataclass(frozen=True)
class EntropyEstimate:
    s_lower: Optional[float]
    s_max: float


def binary_entropy(p: float) -> float:
    """-p ln p - (1-p) ln(1-p), natural log, with 0 ln 0 = 0."""
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * math.log(q)
    return out


def normalize_signs(record: MeasurementRecord) -> tuple[MeasurementRecord, str]:
    """Flip negative expectations, redefining those generators as their negatives.

    Returns the all-nonnegative record and a bit string whose character k is
    '1' iff generator k was flipped (K_k -> -K_k).
    """
    flipped = record.a < 0.0
    signs = "".join("1" if f else "0" for f in flipped)
    if not flipped.any():
        return record, signs
    fixed = MeasurementRecord(record.n, np.abs(record.a), record.delta_a, record.shots)
    return fixed, signs


def _require_normalized(record: MeasurementRecord) -> None:
    if np.any(record.a < 0.0):
        raise ValueError("record has negative expectations; run normalize_signs first")


def _spectrum(a: np.ndarray) -> tuple[float, np.ndarray]:
    """lambda_0 and the single-bit eigenvalues (1 - a_k)/2 of the closed form."""
    n = a.size
    return (float(a.sum()) - n + 2.0) / 2.0, (1.0 - a) / 2.0


def _purity(lam0: float, singles: np.ndarray) -> float:
    return lam0 * lam0 + float(np.dot(singles, singles))


def _feasible_spectrum(record: MeasurementRecord) -> tuple[float, np.ndarray]:
    """The record's spectrum with lambda_0 clipped at 0; raises InfeasibleRecord below the gate."""
    _require_normalized(record)
    lam0, singles = _spectrum(record.a)
    if lam0 < -_EXACT_TOL:
        raise InfeasibleRecord(lam0, record.n)
    return max(lam0, 0.0), singles


def closed_form_is_optimal(record: MeasurementRecord) -> bool:
    """Whether the closed-form candidate satisfies all optimality conditions.

    Nonnegativity of every inequality multiplier reduces to the two-bit
    indices holding the two largest single-bit eigenvalues, i.e.

        lambda_0 >= (1 - a_min1)/2 + (1 - a_min2)/2

    with a_min1, a_min2 the two smallest expectations (for n = 1 there is no
    two-bit index and the condition is vacuous).
    """
    _require_normalized(record)
    if record.n < 2:
        return True
    smallest_two = np.partition(record.a, 1)[:2]
    return float(record.a.sum() + smallest_two.sum()) >= record.n - _EXACT_TOL


def pairwise_sums_ok(record: MeasurementRecord, graph: Optional[GraphSpec] = None) -> bool:
    """Check a_j + a_k >= 1 over vertex pairs (all pairs, or graph edges if given)."""
    _require_normalized(record)
    if record.n < 2:
        return True
    if graph is not None:
        if graph.n != record.n:
            raise ValueError("graph and record disagree on generator count")
        return all(record.a[u] + record.a[v] >= 1.0 - _EXACT_TOL for u, v in graph.edges)
    smallest_two = np.partition(record.a, 1)[:2]
    return float(smallest_two.sum()) >= 1.0 - _EXACT_TOL


def min_purity_coefficients(record: MeasurementRecord) -> CoeffVector:
    """Full 2^n coefficient vector of the least-purity state (n <= DENSE_CAP only)."""
    _feasible_spectrum(record)
    if record.n > DENSE_CAP:
        raise DenseCapExceeded(record.n, DENSE_CAP, "coefficient vector")
    c = np.ones(1 << record.n)
    idx = np.arange(1 << record.n)
    for k in range(record.n):
        c += ((idx >> k) & 1) * (record.a[k] - 1.0)
    return CoeffVector(record.n, c)


def purity_error_bars(record: MeasurementRecord) -> tuple[Optional[float], Optional[float]]:
    """Closed-form purity at the shifted records a -+ delta_a, clipped to [0, 1].

    The upward shift always stays feasible when the record is; the downward
    shift may not be, in which case its bound is reported as None.

    The bars shift every a_k by its delta_a_k together; they are not a
    confidence interval at a fixed level.  Under independent Gaussian errors
    with standard deviations delta_a_k they cover the true p_min with
    probability P(|Z| <= sum_k w_k delta_k / sqrt(sum_k w_k^2 delta_k^2)),
    where w_k = dp_min/da_k = lambda_0 - (1 - a_k)/2.  With equal weights
    that is P(|Z| <= sqrt(n)): about 68, 84, 92 and 95% at n = 1, 2, 3, 4.
    """
    _feasible_spectrum(record)
    upper = _purity(*_spectrum(np.clip(record.a + record.delta_a, 0.0, 1.0)))
    lam0, singles = _spectrum(np.clip(record.a - record.delta_a, 0.0, 1.0))
    if lam0 < -_EXACT_TOL:
        return None, upper
    return _purity(lam0, singles), upper


def min_purity(record: MeasurementRecord, graph: Optional[GraphSpec] = None) -> PurityEstimate:
    """Least purity compatible with the record, with error-bar bounds.

    O(n): the spectrum is (lambda_0, (1 - a_k)/2 ..., 0 x (2^n - n - 1)) and
    p_min is its sum of squares.  Raises InfeasibleRecord when lambda_0 < 0.
    A graph, if supplied, restricts the pairwise-sum warning to its edges.
    """
    lam0, singles = _feasible_spectrum(record)
    p_min = _purity(lam0, singles)
    p_lower, p_upper = purity_error_bars(record)

    warnings = []
    if not pairwise_sums_ok(record, graph):
        scope = "some neighboring" if graph is not None else "some"
        warnings.append(f"{scope} expectation pairs sum below 1")
    if not closed_form_is_optimal(record):
        warnings.append(
            "closed-form minimizer is not optimal for this record (multiplier "
            "condition violated): p_min is a reachable upper bound on the true "
            "minimum purity; compare with the numeric solver for small n"
        )
    if p_lower is None:
        warnings.append("downward-shifted record is infeasible; no lower error bar")

    summary = SpectrumSummary(
        lambda0=lam0,
        singles=tuple(singles.tolist()),
        zero_multiplicity=(1 << record.n) - record.n - 1,
    )
    return PurityEstimate(
        p_min=p_min,
        p_lower=p_lower,
        p_upper=p_upper,
        lambda0=lam0,
        spectrum_summary=summary,
        warnings=tuple(warnings),
    )


def kkt_certificate(record: MeasurementRecord) -> KktCertificate:
    """Construct and check the optimality multipliers for the closed form.

    Equality multipliers: nu at a single-bit index is that eigenvalue minus
    lambda_0; nu at the zero index makes mu vanish there.  The inequality
    multipliers are then mu = 2 lambda + A nu with A the (unnormalized)
    sign matrix of the eigenvalue transform.  Validity requires mu >= 0,
    componentwise complementarity mu * lambda = 0, and the stationarity
    identity (2/2^n) c - (1/2^n) A mu + nu = 0.

    Raises CertificateInvalid (carrying the certificate and the failing index)
    whenever a condition fails beyond KKT_TOL, which for exact-arithmetic
    reasons happens iff :func:`closed_form_is_optimal` is False.
    """
    _feasible_spectrum(record)
    if record.n > DENSE_CAP:
        raise DenseCapExceeded(record.n, DENSE_CAP, "certificate multipliers")
    lam0, singles = _spectrum(record.a)  # unclipped: certify the candidate as constructed
    dim = 1 << record.n
    single_idx = 1 << np.arange(record.n)
    lam = np.zeros(dim)
    lam[0] = lam0
    lam[single_idx] = singles
    c = min_purity_coefficients(record).values

    nu_full = np.zeros(dim)
    nu_full[single_idx] = singles - lam0
    nu_full[0] = -2.0 * lam0 - nu_full.sum()

    mu = nu_full.copy()
    walsh_hadamard_inplace(mu)
    mu += 2.0 * lam

    residual = (2.0 / dim) * c + nu_full
    a_mu = mu.copy()
    walsh_hadamard_inplace(a_mu)
    residual -= a_mu / dim

    nu = nu_full[np.concatenate(([0], single_idx))]
    cert = KktCertificate(
        mu=mu,
        nu=nu,
        stationarity_residual=float(np.abs(residual).max()),
        min_mu=float(mu.min()),
        complementarity_residual=float(np.abs(mu * lam).max()),
    )
    if cert.min_mu < -KKT_TOL:
        raise CertificateInvalid("mu >= 0", int(np.argmin(mu)), cert.min_mu, cert)
    if cert.stationarity_residual > KKT_TOL:
        idx = int(np.abs(residual).argmax())
        raise CertificateInvalid("stationarity", idx, cert.stationarity_residual, cert)
    if cert.complementarity_residual > KKT_TOL:
        idx = int(np.abs(mu * lam).argmax())
        raise CertificateInvalid("complementarity", idx, cert.complementarity_residual, cert)
    return cert


def entropy_lower_bound(record: MeasurementRecord) -> float:
    """Entropy of the least-purity state: a lower bound on the maximal entropy."""
    lam0, singles = _feasible_spectrum(record)
    out = 0.0
    for s in (lam0, *singles.tolist()):
        if s > 0.0:
            out -= s * math.log(s)
    return out


def entropy_max(record: MeasurementRecord) -> float:
    """Exact maximal entropy over all states reproducing the expectations.

    By subadditivity the maximum is attained by the product spectrum
    lambda_j = prod_k (1 + (-1)^{j_k} a_k)/2, so S_max = sum_k h((1+a_k)/2).
    Always defined; no feasibility gate.
    """
    _require_normalized(record)
    return float(sum(binary_entropy((1.0 + ak) / 2.0) for ak in record.a))


def estimate_entropy(record: MeasurementRecord) -> EntropyEstimate:
    """Both entropy bounds in one report; s_lower is None for infeasible records."""
    s_max = entropy_max(record)
    try:
        return EntropyEstimate(entropy_lower_bound(record), s_max)
    except InfeasibleRecord:
        return EntropyEstimate(None, s_max)
