"""Stabilizer-diagonal density operators.

A state that is diagonal in the common eigenbasis of a stabilizer group is
fixed by 2^n real coefficients c[i] = tr(rho S_i), one per group element, with
c[0] = 1 by normalization.  Its eigenvalues are the signed averages

    lambda[j] = 2^{-n} * sum_i (-1)^{popcount(i & j)} c[i],

a Walsh-Hadamard transform, computed here as an in-place butterfly in
O(n 2^n).  The inverse is the same transform without the 2^{-n} factor.
``dephased_coefficients`` builds c[i] = exp(-gamma_t popcount(i)), a dephased
graph state; its O(n) closed forms are in the simulator module.

A dense state is read into that form by CZ conjugation (Hein, Eisert &
Briegel, PRA 69, 062311, 2004).  The graph state is U|+>^n with
U = prod_{(a,b) in E} CZ_ab, diagonal with u_k = (-1)^{#edges inside k}, and
U X_a U = K_a, so every group element is S_i = U X^i U: a real signed
permutation, and tr(rho S_i) = sum_k u_k u_{k^i} rho[k^i, k] for Hermitian rho.
"""

from dataclasses import dataclass

import numpy as np

from .stabilizer import DENSE_CAP, GraphSpec


class DenseCapExceeded(Exception):
    """Raised when an operation would materialize a 2^n-sized object above DENSE_CAP."""

    def __init__(self, n: int, what: str):
        super().__init__(f"{what} requires n <= {DENSE_CAP}, got n = {n}")


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_length(n: int, values: np.ndarray, what: str) -> None:
    if n < 1:
        raise ValueError("need at least one qubit")
    if values.ndim != 1 or values.size != (1 << n):
        raise ValueError(f"{what} for n = {n} must have length {1 << n}, got {values.size}")


@dataclass(frozen=True)
class CoeffVector:
    """Stabilizer-basis coefficients of a state; index bit k selects generator k.
    A dataclass, as ``dataclasses.replace`` re-runs its checks (a named tuple's _replace would not)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        _check_length(self.n, self.values, "coefficient vector")
        if not abs(self.values[0] - 1.0) <= 1e-9:  # NaN fails this comparison too
            raise ValueError(f"c[0] must be 1 (unit trace), got {self.values[0]!r}")


def dephased_coefficients(graph: GraphSpec, gamma_t: float) -> CoeffVector:
    """Coefficient vector exp(-gamma_t popcount(i)) of the dephased graph state."""
    idx = np.arange(1 << graph.n)
    weights = np.bitwise_count(idx).astype(float)
    return CoeffVector(graph.n, np.exp(-gamma_t * weights))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a stabilizer-diagonal state, indexed by eigenvector bit-strings.
    A dataclass, as ``dataclasses.replace`` re-runs its checks (a named tuple's _replace would not)."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        _check_length(self.n, self.values, "spectrum")


def walsh_hadamard_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform of a length-2^m buffer, in place.

    The butterfly pairs indices differing in one bit; the bit order does not
    affect the result.  O(m 2^m) time, one length-2^{m-1} temporary per pass.
    """
    size = a.size
    if size & (size - 1):
        raise ValueError("buffer length must be a power of two")
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2 * h)
        lo = pairs[:, :h]
        hi = pairs[:, h:]
        tmp = lo - hi
        lo += hi
        hi[:] = tmp
        h *= 2


def eigenvalues(c: CoeffVector) -> Spectrum:
    """Spectrum of the state with coefficients c: normalized transform of c."""
    buf = c.values.copy()
    walsh_hadamard_inplace(buf)
    buf /= buf.size
    return Spectrum(c.n, buf)


def coefficients(s: Spectrum) -> CoeffVector:
    """Inverse of :func:`eigenvalues`; round-trips to the identity."""
    buf = s.values.copy()
    walsh_hadamard_inplace(buf)
    return CoeffVector(s.n, buf)


def purity(c: CoeffVector) -> float:
    """tr(rho^2) = 2^{-n} sum_i c[i]^2."""
    return float(np.dot(c.values, c.values) / c.values.size)


def twirl(rho: np.ndarray, graph: GraphSpec) -> CoeffVector:
    """Project rho onto stabilizer-diagonal form by reading tr(rho S_i) for all i.

    Equivalent to group-averaging rho over the stabilizer group, and preserves
    every stabilizer expectation value.  With S_i = U X^i U (module docstring),

        c[i] = Re sum_k sigma[k^i, k],    sigma = rho o u u^T,

    one gather over all (i, k) pairs, summed in the dtype of rho.  The real
    part is tr(rho S_i) only for Hermitian rho, so this requires unit trace and
    max|rho - rho^dagger| <= 1e-9, and raises ValueError past either or on NaN.
    """
    if graph.n > DENSE_CAP:
        raise DenseCapExceeded(graph.n, "twirl")
    dim = 1 << graph.n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {rho.shape}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= 1e-9:  # NaN fails this comparison too
        raise ValueError(f"trace {tr:.12g} differs from 1 by more than 1e-9")
    skew = float(np.abs(rho - rho.conj().T).max())
    if not skew <= 1e-9:
        raise ValueError(f"rho is not Hermitian: max|rho - rho^dagger| = {skew:.3g} above 1e-9")
    k = np.arange(dim)
    inside = np.zeros_like(k)
    for a, b in graph.edges:
        inside += (k >> a) & (k >> b) & 1
    u = 1.0 - 2.0 * (inside & 1)
    sigma = rho * np.outer(u, u)
    return CoeffVector(graph.n, sigma[k[:, None] ^ k, k].sum(axis=1).real)

