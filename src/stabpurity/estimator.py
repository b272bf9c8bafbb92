"""Closed-form purity and entropy bounds from stabilizer-generator measurements.

Given expectation values a_k of the n stabilizer generators of a graph state,
the least-purity state compatible with the data is stabilizer-diagonal.  A
negative a_k is answered as its magnitude: flipping K_k -> -K_k turns the graph
state |G> into Z_k|G>, which is local-unitary equivalent, so no purity or
entropy bound depends on the signs.  With every a_k so read as |a_k|, the
state has coefficients

    c[i] = sum_k i_k a_k - popcount(i) + 1,

whose spectrum consists of lambda_0 = (sum_k a_k - n + 2) / 2, the n values
(1 - a_k) / 2 at the single-bit indices, and zeros elsewhere.  Everything the
estimator reports is therefore O(n) work on Python floats, and the optimality
certificate O(n log n); no 2^n object is built and numpy is never imported.
That spectrum is derived in one place, :func:`_spectrum`, as one tuple
(lambda_0, s_1, ..., s_n); purity (its sum of squares, :func:`_purity`), error
bars, entropy and certificate all read that tuple (through
:func:`_feasible_spectrum` where the gate below applies).

Each quantity has one public entrance: p_min, its error bars and the
warnings come from :func:`min_purity`, both entropy bounds from
:func:`estimate_entropy`, and the optimality verdict from
:func:`kkt_certificate` (its ``valid``).

Every sum is Shewchuk's exact ``math.fsum``, rounded once.  lambda_0 is one
such sum of exact terms, so it is correctly rounded even as it nears 0, and no
reported value depends on the order of the generators.  A correctly rounded
sum has the sign of the exact one, so each gate below is one such sum with its
constant inside, and its sign is read with no slack.

The candidate is a valid state iff lambda_0 >= 0, which is the hard
feasibility gate.  It is the true optimum iff every inequality multiplier is
nonnegative, which reduces to lambda_0 >= (largest) + (second largest) of the
single-bit eigenvalues, i.e. sum(a) + a_(1) + a_(2) >= n (two smallest a_k);
records failing that condition still get the closed-form value (a reachable
upper bound on the minimum purity) plus a warning, and the certificate reports
the violation as ``valid=False``.

Each public function reads the magnitudes ``tuple(map(abs, record.a))`` once
(abs also turns a -0.0 into 0.0) and works on that tuple; ``nu``, ``lambda0``
and ``singles`` refer to the sign-normalized generators.

``KktCertificate`` and ``EntropyEstimate`` are named tuples, which unpack and
compare by value; the validated record and ``PurityEstimate`` stay dataclasses.
"""

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, sub
from typing import NamedTuple

from .stabilizer import GraphSpec


class InfeasibleRecord(Exception):
    """Measurement record violates the closed-form feasibility gate (lambda_0 < 0)."""

    def __init__(self, lambda0: float, a: tuple):
        self.lambda0 = lambda0
        self.n = n = len(a)
        self.sum_a = math.fsum(a)
        super().__init__(  # the shortfall -2 lambda_0 is positive even where sum(a) rounds to n - 2
            f"sum(a) = {self.sum_a!r} is {-2.0 * lambda0:.6g} below n - 2 = {n - 2}: the closed-form "
            f"candidate state has lambda_0 = {lambda0:.6g} < 0; use the numeric solver "
            f"for small n instead"
        )


def _floats(values, n: int, name: str) -> tuple:
    """``values`` (a number, any sequence, or a numpy array) as a tuple of n floats."""
    if hasattr(values, "tolist"):  # numpy arrays and scalars
        values = values.tolist()
    try:
        out = tuple(map(float, values)) if hasattr(values, "__iter__") else (float(values),)
    except TypeError as exc:
        raise ValueError(f"{name} must be a sequence of {n} numbers") from exc
    if len(out) != n:
        raise ValueError(f"{name} must have length {n}, got {len(out)}")
    return out


@dataclass(frozen=True)
class MeasurementRecord:
    """Generator expectations a_k with their uncertainties delta_a_k.

    Accepts any sequence (or numpy array) for both and stores tuples of floats.
    A dataclass, as ``dataclasses.replace`` re-runs its validation (a named tuple's
    _replace would not) and ``bench/spans.py`` times its ``__init__``.
    """

    n: int
    a: tuple
    delta_a: tuple = None

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"generator count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("need at least one generator")
        a = _floats(self.a, self.n, "a")
        if not all(abs(x) <= 1.0 for x in a):  # NaN fails this comparison too
            raise ValueError("every a_k must lie in [-1, 1]")
        delta = (0.0,) * self.n if self.delta_a is None else _floats(self.delta_a, self.n, "delta_a")
        if not all(x >= 0.0 for x in delta):
            raise ValueError("uncertainties must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "delta_a", delta)


@dataclass(frozen=True)
class PurityEstimate:
    """p_min, its error bars, and the nonzero spectrum: lambda0 and the single-bit ``singles``.
    A dataclass, as ``bench/selfcheck.py`` copies one with ``dataclasses.replace``."""

    p_min: float
    p_lower: float | None
    p_upper: float | None
    lambda0: float
    singles: tuple
    warnings: tuple = ()


class KktCertificate(NamedTuple):
    """Multipliers certifying optimality of the closed-form minimizer.

    ``nu`` holds the equality multipliers: nu[0] at the all-zero index,
    nu[k] (k >= 1) at the index with only bit k-1 set.  Of the 2^n inequality
    multipliers only their minimum ``min_mu`` is kept: the rest of the KKT
    conditions hold by construction (derivation in :func:`kkt_certificate`).
    ``valid`` is the verdict of the one exact optimality test, which the
    estimator's warning reads too, so the two never disagree.  The multipliers
    refer to the sign-normalized generators, whose expectations are |a_k|.
    """

    nu: tuple
    min_mu: float
    valid: bool


class EntropyEstimate(NamedTuple):
    s_lower: float | None
    s_max: float


def binary_entropy(p: float) -> float:
    """-p ln p - (1-p) ln(1-p), natural log, with 0 ln 0 = 0."""
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * math.log(q)
    return out


def _spectrum(a: tuple) -> tuple:
    """The closed form's nonzero spectrum (lambda_0, s_1, ..., s_n), s_k = (1 - a_k)/2.

    lambda_0 = (2 - n + sum(a))/2 is one exact sum of exact terms, rounded once.
    """
    return (math.fsum((2.0 - len(a), *a)) / 2.0, *[(1.0 - x) / 2.0 for x in a])


def _purity(spectrum: tuple) -> float:
    """The sum of squares of a spectrum, rounded once."""
    return math.fsum(map(mul, spectrum, spectrum))


def _feasible_spectrum(a: tuple) -> tuple:
    """The spectrum of a record at or above the gate; raises InfeasibleRecord below it."""
    spectrum = _spectrum(a)
    if spectrum[0] < 0.0:
        raise InfeasibleRecord(spectrum[0], a)
    return spectrum


def _is_optimal(a: tuple) -> bool:
    """Whether the closed-form candidate satisfies all optimality conditions.

    Nonnegativity of every inequality multiplier reduces to the two-bit
    indices holding the two largest single-bit eigenvalues, i.e.

        lambda_0 >= (1 - a_min1)/2 + (1 - a_min2)/2

    with a_min1, a_min2 the two smallest expectations (for n = 1 there is no
    two-bit index and the condition is vacuous).
    """
    return len(a) < 2 or math.fsum((-len(a), *a, *heapq.nsmallest(2, a))) >= 0.0


def min_purity(record: MeasurementRecord, graph: GraphSpec | None = None) -> PurityEstimate:
    """Least purity compatible with the record, with error-bar bounds.

    O(n): the spectrum is (lambda_0, (1 - a_k)/2 ..., 0 x (2^n - n - 1)) and
    p_min is its sum of squares.  Raises InfeasibleRecord when lambda_0 < 0.
    Every a_k here is |a_k|, so ``lambda0`` and ``singles`` are the spectrum
    in the basis of the sign-normalized generators.

    The true minimum is nondecreasing in every a_k; the closed form equals it
    only on the optimal region.  So p_lower is the closed form at a - delta_a,
    capped at p_min, if that record is optimal (else None, with a warning), and
    p_upper the larger of p_min and the closed form at a + delta_a, each shifted
    a_k clipped to [0, 1].  The bars shift every a_k by its delta_a_k
    together; they are not a confidence interval at a fixed level.  Under
    independent Gaussian errors with standard deviations delta_a_k they cover
    the true p_min with probability
    P(|Z| <= sum_k w_k delta_k / sqrt(sum_k w_k^2 delta_k^2)), where
    w_k = dp_min/da_k = lambda_0 - (1 - a_k)/2.  With equal weights that is
    P(|Z| <= sqrt(n)): about 68, 84, 92 and 95% at n = 1, 2, 3, 4.

    ``graph`` is only checked against the record's generator count.  No
    pairwise-sum warning is needed: the optimality condition sum(a) + a_(1) +
    a_(2) >= n with sum(a) <= a_(1) + a_(2) + n - 2 gives a_(1) + a_(2) >= 1,
    so a pair summing below 1 already gets the "not optimal" warning.
    """
    a = tuple(map(abs, record.a))
    spectrum = _feasible_spectrum(a)
    p_min = _purity(spectrum)
    p_upper = max(p_min, _purity(_spectrum([x if x < 1.0 else 1.0 for x in map(add, a, record.delta_a)])))
    low = [x if x > 0.0 else 0.0 for x in map(sub, a, record.delta_a)]
    p_lower = min(p_min, _purity(_spectrum(low))) if _is_optimal(low) else None

    if graph is not None and graph.n != len(a):
        raise ValueError("graph and record disagree on generator count")

    warnings = []
    if not _is_optimal(a):
        warnings.append(
            "closed-form minimizer is not optimal for this record (multiplier "
            "condition violated): p_min is a reachable upper bound on the true "
            "minimum purity; compare with the numeric solver for small n"
        )
    if p_lower is None:
        warnings.append("downward-shifted record is outside the closed form's optimal region; no lower error bar")

    return PurityEstimate(
        p_min=p_min,
        p_lower=p_lower,
        p_upper=p_upper,
        lambda0=spectrum[0],
        singles=spectrum[1:],
        warnings=tuple(warnings),
    )


def kkt_certificate(record: MeasurementRecord) -> KktCertificate:
    """Construct and check the optimality multipliers for the closed form, in O(n log n).

    Equality multipliers: nu at a single-bit index is that eigenvalue minus
    lambda_0; nu at the zero index is -2 lambda_0 minus their sum.  With A the
    (unnormalized) sign matrix of the eigenvalue transform and s_k = (1 - a_k)/2,
    the inequality multipliers mu = 2 lambda + A nu at an index j with m bits are

        mu_j = 2 lambda_j - 2 lambda_0 - 2 sum_{k in j} nu_k
             = 2 lambda_j + 2 (m - 1) lambda_0 - 2 sum_{k in j} s_k,

    exactly 0 on the support (m <= 1), so complementarity and stationarity hold
    by construction.  With S_m the sum of the m largest s_k (a prefix sum of the
    sorted s_k), min_mu = min(0, min_{m >= 2} 2 ((m - 1) lambda_0 - S_m)).

    Every a_k here is |a_k|, so ``nu`` refers to the sign-normalized generators.
    The increments lambda_0 - s_(m+1) grow with m, so min_mu < 0 iff the
    two-bit term is, which is the test of :func:`_is_optimal`; ``valid`` is
    that test's verdict, the exact sign of one sum.  Every feasible record gets
    its certificate, valid or not; the only raise is InfeasibleRecord, below
    the gate.
    """
    a = tuple(map(abs, record.a))
    lam0, *s = _feasible_spectrum(a)
    nu_singles = [sk - lam0 for sk in s]
    nu = (-2.0 * lam0 - math.fsum(nu_singles), *nu_singles)

    tops = accumulate(sorted(s, reverse=True))  # S_1, S_2, ..., S_n
    min_mu = min([0.0, *(2.0 * (m * lam0 - top) for m, top in enumerate(tops) if m)])
    return KktCertificate(nu=nu, min_mu=min_mu, valid=_is_optimal(a))


def estimate_entropy(record: MeasurementRecord) -> EntropyEstimate:
    """Both entropy bounds of the record.

    s_lower is the entropy of the least-purity state, a lower bound on the
    maximal entropy, and None for infeasible records.  s_max is the exact
    maximal entropy over all states reproducing the expectations: by
    subadditivity the maximum is attained by the product spectrum
    lambda_j = prod_k (1 + (-1)^{j_k} a_k)/2, so S_max = sum_k h((1+a_k)/2).
    It has no feasibility gate.
    """
    a = tuple(map(abs, record.a))
    spectrum = _spectrum(a)
    s_lower = None if spectrum[0] < 0.0 else math.fsum([-s * math.log(s) for s in spectrum if s > 0.0])
    return EntropyEstimate(s_lower, math.fsum(map(binary_entropy, [(1.0 + ak) / 2.0 for ak in a])))
