"""Graphs and exact Pauli/stabilizer algebra.

Conventions, fixed project-wide:

* Qubits are labeled 0..n-1 and qubit j is bit j (least significant = qubit 0)
  of every integer mask and of computational-basis indices of dense matrices.
* A Pauli string is ``phase * (w_0 (x) w_1 (x) ... (x) w_{n-1})`` with letters
  ``w_j`` in {I, X, Y, Z} and ``phase`` in {+1, -1, +i, -i}.  Internally the
  letters are stored as an (x_mask, z_mask) pair; the letter on qubit j is
  ``X^x Z^z`` up to the Y convention below.
* Y = i X Z, equivalently X Z = -i Y.  All phase bookkeeping follows from it.

A graph with vertex set {0..n-1} defines one stabilizer generator per vertex:
X on the vertex, Z on each of its neighbors.  The 2^n products of generators
(one per index bit-string, bit k selecting generator k) form the stabilizer
group; every member is Hermitian with phase +1 or -1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DenseCapExceeded

#: Largest n for which dense 2^n x 2^n matrices may be materialized.
DENSE_CAP = 10

_PHASE_VALUES = (1, 1j, -1, -1j)
_PHASE_LABELS = ("+", "+i", "-", "-i")
_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class GraphSpec:
    """A simple undirected graph on vertices 0..n-1.

    Edges are stored as a frozenset of sorted pairs; self-loops and duplicate
    edges are rejected.  n = 1 with no edges is valid (single generator X).
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        seen = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} outside vertex range 0..{self.n - 1}")
            if u > v:
                raise ValueError(f"edge {e} not normalized; use GraphSpec.from_edges")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphSpec":
        """Build a GraphSpec from any iterable of vertex pairs."""
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u > v:
                u, v = v, u
            if (u, v) in normalized:
                raise ValueError(f"duplicate edge ({u}, {v})")
            normalized.add((u, v))
        return cls(int(n), frozenset(normalized))

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSpec":
        """Parse the JSON form {"n": int, "edges": [[u, v], ...]}, coercing nothing."""
        if not isinstance(d, dict) or "n" not in d:
            raise ValueError("graph must be an object with field 'n'")
        edges = d.get("edges", [])
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError("graph edges must be a list of [u, v] pairs")
        for value in (d["n"], *(v for e in edges for v in e)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"graph n and vertices must be integers, got {value!r}")
        return cls.from_edges(d["n"], edges)

    @classmethod
    def preset(cls, name: str) -> "GraphSpec":
        """Named families: "path-n", "ring-n", "star-n"."""
        m = re.fullmatch(r"(path|ring|star)-(\d+)", name)
        if not m:
            raise ValueError(f"unknown graph preset {name!r}")
        kind, n = m.group(1), int(m.group(2))
        if kind == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif kind == "ring":
            edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)} if n > 1 else []
        else:
            edges = [(0, i) for i in range(1, n)]
        return cls.from_edges(n, edges)

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}

    def neighbor_mask(self, j: int) -> int:
        """Bit mask of the neighbors of vertex j."""
        mask = 0
        for u, v in self.edges:
            if u == j:
                mask |= 1 << v
            elif v == j:
                mask |= 1 << u
        return mask


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with explicit phase.

    ``phase_exp`` is the exponent k of the global phase i^k relative to the
    plain letter string, so phase_exp 0, 1, 2, 3 means +1, +i, -1, -i.
    Hermitian iff the phase is real (phase_exp even).
    """

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        top = 1 << self.n
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("mask outside qubit range")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase_exp must be in 0..3")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_exp]

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    # Multiplication works in the qubit-wise X^x Z^z normal form, whose
    # coefficient differs from the letter-string phase by i^{|x & z|}
    # (one factor i per Y).  Moving Z^z1 past X^x2 costs (-1)^{|z1 & x2|}.
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        coeff = (
            self.phase_exp
            + (self.x_mask & self.z_mask).bit_count()
            + other.phase_exp
            + (other.x_mask & other.z_mask).bit_count()
            + 2 * (self.z_mask & other.x_mask).bit_count()
        )
        x = self.x_mask ^ other.x_mask
        z = self.z_mask ^ other.z_mask
        return PauliString(self.n, x, z, (coeff - (x & z).bit_count()) % 4)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        sym = (self.x_mask & other.z_mask).bit_count() + (self.z_mask & other.x_mask).bit_count()
        return sym % 2 == 0

    def letter(self, j: int) -> str:
        return _LETTERS[((self.x_mask >> j) & 1, (self.z_mask >> j) & 1)]

    def __str__(self) -> str:
        return _PHASE_LABELS[self.phase_exp] + "".join(self.letter(j) for j in range(self.n))


def generators(graph: GraphSpec) -> list[PauliString]:
    """Stabilizer generators of the graph state: X on vertex j, Z on its neighbors.

    All n returned strings are Hermitian (phase +1) and mutually commute.
    """
    return [
        PauliString(graph.n, 1 << j, graph.neighbor_mask(j), 0) for j in range(graph.n)
    ]


def stabilizer_element(graph: GraphSpec, index: int) -> PauliString:
    """Product of the generators selected by the bits of ``index``.

    Bit k of ``index`` selects generator k.  The result is Hermitian with
    phase +1 or -1; index 0 gives the identity.
    """
    if not (0 <= index < (1 << graph.n)):
        raise ValueError(f"index {index} needs more than {graph.n} bits")
    gens = generators(graph)
    out = PauliString.identity(graph.n)
    for k in range(graph.n):
        if (index >> k) & 1:
            out = out * gens[k]
    return out


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic inner product of the (x, z) masks is even."""
    return p.commutes_with(q)


def dense_matrix(p: PauliString) -> np.ndarray:
    """Kronecker-product realization of p as a 2^n x 2^n complex matrix.

    Hermitian whenever the phase is real.  Refuses n above ``DENSE_CAP``.
    """
    if p.n > DENSE_CAP:
        raise DenseCapExceeded(p.n, DENSE_CAP)
    m = np.array([[1.0 + 0j]])
    for j in range(p.n):
        # qubit 0 must end up as the fastest-varying index bit
        m = np.kron(_LETTER_MATRICES[p.letter(j)], m)
    return p.phase * m


def expectation_value(rho: np.ndarray, p: PauliString) -> float:
    """tr(rho p), evaluated in O(2^n) from the permutation structure of p.

    Column k of a Pauli letter string has its single entry in row k XOR x_mask
    with sign (-1)^{|z_mask & k|}.  Assumes Hermitian rho; returns the real part.
    """
    dim = 1 << p.n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {rho.shape}")
    k = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(k & np.int64(p.z_mask)).astype(np.int64) & 1)
    letter_coeff = p.phase * (1j) ** (p.x_mask & p.z_mask).bit_count()
    return float((letter_coeff * np.sum(signs * rho[k ^ p.x_mask, k])).real)
