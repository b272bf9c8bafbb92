"""Graphs whose graph states the package estimates.

Conventions, fixed project-wide:

* Qubits are labeled 0..n-1 and qubit j is bit j (least significant = qubit 0)
  of every integer mask and of computational-basis indices of dense matrices.
* A graph with vertex set {0..n-1} defines one stabilizer generator per
  vertex: X on the vertex, Z on each of its neighbors.  Bit k of a group
  index selects generator k; the 2^n products form the stabilizer group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Largest n for which dense 2^n x 2^n matrices may be materialized.
DENSE_CAP = 10


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
