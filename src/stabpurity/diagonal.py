"""Stabilizer-diagonal density operators.

A state that is diagonal in the common eigenbasis of a stabilizer group is
fixed by 2^n real coefficients c[i] = tr(rho S_i), one per group element, with
c[0] = 1 by normalization.  Its eigenvalues are the signed averages

    lambda[j] = 2^{-n} * sum_i (-1)^{popcount(i & j)} c[i],

a Walsh-Hadamard transform, computed here as an in-place butterfly in
O(n 2^n).  The inverse is the same transform without the 2^{-n} factor.

A dense state is read into that form by CZ conjugation (Hein, Eisert &
Briegel, PRA 69, 062311, 2004).  The graph state is U|+>^n with
U = prod_{(a,b) in E} CZ_ab, diagonal with u_k = (-1)^{#edges inside k}, and
U X_a U = K_a, so every group element is S_i = U X^i U: a real signed
permutation, and tr(rho S_i) = sum_k u_k u_{k^i} rho[k^i, k] for Hermitian rho.

Entropy uses the natural logarithm throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenseCapExceeded, NonPhysicalSpectrum, NonUnitTrace
from .stabilizer import DENSE_CAP, GraphSpec, dense_matrix, stabilizer_element

#: Entropy clamps eigenvalues in [-SPECTRUM_FLOOR, 0) to zero and rejects below.
SPECTRUM_FLOOR = 1e-9


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
    """Stabilizer-basis coefficients of a state; index bit k selects generator k."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        _check_length(self.n, self.values, "coefficient vector")
        if abs(self.values[0] - 1.0) > 1e-9:
            raise ValueError(f"c[0] must be 1 (unit trace), got {self.values[0]!r}")

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a stabilizer-diagonal state, indexed by eigenvector bit-strings."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        _check_length(self.n, self.values, "spectrum")

    def __getitem__(self, j: int) -> float:
        return float(self.values[j])


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


def entropy(s: Spectrum) -> float:
    """Von Neumann entropy -sum lambda ln lambda, with 0 ln 0 = 0.

    Eigenvalues in [-SPECTRUM_FLOOR, 0) are treated as exact zeros; anything
    below raises NonPhysicalSpectrum.
    """
    lam = s.values
    worst = lam.min()
    if worst < -SPECTRUM_FLOOR:
        raise NonPhysicalSpectrum(
            f"eigenvalue {worst!r} below -{SPECTRUM_FLOOR:g}; not a density-operator spectrum"
        )
    pos = lam[lam > 0.0]
    return float(-np.dot(pos, np.log(pos)))


def _stabilizer_group(graph: GraphSpec):
    return [stabilizer_element(graph, i) for i in range(1 << graph.n)]


def _check_dense_input(rho: np.ndarray, graph: GraphSpec, what: str) -> None:
    if graph.n > DENSE_CAP:
        raise DenseCapExceeded(graph.n, DENSE_CAP, what)
    dim = 1 << graph.n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {rho.shape}")


def twirl(rho: np.ndarray, graph: GraphSpec) -> CoeffVector:
    """Project rho onto stabilizer-diagonal form by reading tr(rho S_i) for all i.

    Equivalent to group-averaging rho over the stabilizer group (see
    :func:`twirl_average` for that literal, slower path) and preserves every
    stabilizer expectation value.  With S_i = U X^i U (module docstring),

        c[i] = Re sum_k sigma[k^i, k],    sigma = rho o u u^T,

    one gather over all (i, k) pairs.  The sum runs in the dtype of rho, so
    c[i] equals ``stabilizer.expectation_value`` of S_i bit for bit.  The real
    part is tr(rho S_i) only for Hermitian rho, so this requires unit trace
    and max|rho - rho^dagger| <= 1e-9, and raises ValueError past the latter.
    """
    _check_dense_input(rho, graph, "twirl")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-9:
        raise NonUnitTrace(f"trace {tr:.12g} differs from 1 by more than 1e-9")
    skew = float(np.abs(rho - rho.conj().T).max())
    if skew > 1e-9:
        raise ValueError(f"rho is not Hermitian: max|rho - rho^dagger| = {skew:.3g} above 1e-9")
    k = np.arange(1 << graph.n)
    inside = np.zeros_like(k)
    for a, b in graph.edges:
        inside += (k >> a) & (k >> b) & 1
    u = 1.0 - 2.0 * (inside & 1)
    sigma = rho * np.outer(u, u)
    return CoeffVector(graph.n, sigma[k[:, None] ^ k, k].sum(axis=1).real)


def twirl_average(rho: np.ndarray, graph: GraphSpec) -> np.ndarray:
    """The twirled state computed as the literal group average 2^{-n} sum S rho S.

    Reference path used to cross-validate :func:`twirl`; quadratically more
    work, so not the production route.
    """
    _check_dense_input(rho, graph, "twirl average")
    acc = np.zeros_like(rho, dtype=complex)
    for s in _stabilizer_group(graph):
        m = dense_matrix(s)
        acc += m @ rho @ m
    return acc / (1 << graph.n)


def assemble_dense(c: CoeffVector, graph: GraphSpec) -> np.ndarray:
    """Dense 2^{-n} sum_i c[i] S_i; Hermitian with unit trace when c[0] = 1."""
    if graph.n != c.n:
        raise ValueError("graph and coefficient vector disagree on qubit count")
    if graph.n > DENSE_CAP:
        raise DenseCapExceeded(graph.n, DENSE_CAP, "dense assembly")
    dim = 1 << graph.n
    k = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for i, s in enumerate(_stabilizer_group(graph)):
        # each group element is a signed permutation: one entry per column
        signs = 1 - 2 * (np.bitwise_count(k & np.int64(s.z_mask)).astype(np.int64) & 1)
        coeff = s.phase * (1j) ** (s.x_mask & s.z_mask).bit_count()
        out[k ^ s.x_mask, k] += (c[i] * coeff / dim) * signs
    return out
