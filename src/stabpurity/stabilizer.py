"""Graphs whose graph states the package estimates.

Conventions, fixed project-wide:

* Qubits are labeled 0..n-1 and qubit j is bit j (least significant = qubit 0)
  of every integer mask and of computational-basis indices of dense matrices.
* A graph with vertex set {0..n-1} defines one stabilizer generator per
  vertex: X on the vertex, Z on each of its neighbors.  Bit k of a group
  index selects generator k; the 2^n products form the stabilizer group.
"""

import re
from dataclasses import dataclass

#: Largest n for which dense 2^n x 2^n matrices may be materialized.
DENSE_CAP = 10


@dataclass(frozen=True)
class GraphSpec:
    """A simple undirected graph on vertices 0..n-1.

    Edges may be given as any iterable of vertex pairs, in either order, with
    each vertex passed through ``int()``, which must keep its value (1.9, "1"
    and inf are rejected).  They are normalized on construction and stored as
    a frozenset of sorted pairs; self-loops, out-of-range vertices and
    duplicate edges (in either order) are rejected.  n = 1 with no edges is
    valid (single generator X).  A dataclass, as ``dataclasses.replace`` re-runs
    this validation (a named tuple's _replace would not).
    """

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        normalized = set()
        for pair in self.edges:
            try:
                e = tuple(sorted(int(v) for v in pair if int(v) == v))
            except (TypeError, ValueError, OverflowError):  # int() refused a vertex
                e = ()
            if len(e) != 2:
                raise ValueError(f"edge {pair!r} is not a pair of integer vertices")
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u and v < self.n):
                raise ValueError(f"edge {e} outside vertex range 0..{self.n - 1}")
            if e in normalized:
                raise ValueError(f"duplicate edge {e}")
            normalized.add(e)
        object.__setattr__(self, "edges", frozenset(normalized))

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
        return cls(d["n"], edges)

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
        return cls(n, edges)

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}
