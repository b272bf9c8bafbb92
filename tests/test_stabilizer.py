import math

import numpy as np
import pytest

from stabpurity.stabilizer import GraphSpec
from support import kron_group, random_graph

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PATH2 = GraphSpec.preset("path-2")


class TestGraphSpec:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphSpec(2, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        for edges in ([(0, 1), (1, 0)], [(1, 2), (1, 2)]):
            with pytest.raises(ValueError, match="duplicate"):
                GraphSpec(3, edges)

    def test_rejects_out_of_range(self):
        for edges in ([(0, 2)], [(-1, 0)]):
            with pytest.raises(ValueError, match="outside"):
                GraphSpec(2, edges)

    def test_rejects_empty_graph(self):
        for n in (0, True):  # a bool n would be written to JSON as true
            with pytest.raises(ValueError, match="vertex count"):
                GraphSpec(n)

    def test_rejects_non_integer_vertex(self):
        for v in (1.9, "1", math.inf, math.nan, None):
            with pytest.raises(ValueError, match="integer vertices"):
                GraphSpec(3, [(0, v)])

    def test_single_vertex_valid(self):
        assert GraphSpec(1).edges == frozenset()

    def test_edges_normalized_on_construction(self):
        assert GraphSpec(3, [(1, 0)]).edges == {(0, 1)}
        assert GraphSpec(3, [(2, 1), (1, 0)]) == GraphSpec(3, frozenset({(0, 1), (1, 2)}))

    def test_presets(self):
        assert GraphSpec.preset("path-4").edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert GraphSpec.preset("ring-3").edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert GraphSpec.preset("star-4").edges == frozenset({(0, 1), (0, 2), (0, 3)})
        assert GraphSpec.preset("path-1").edges == frozenset()
        with pytest.raises(ValueError, match="preset"):
            GraphSpec.preset("clique-3")

    def test_dict_round_trip(self):
        g = GraphSpec.from_dict({"n": 3, "edges": [[2, 1], [0, 1]]})
        assert GraphSpec.from_dict(g.to_dict()) == g

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3.7, "edges": []},
            {"n": "3", "edges": []},
            {"n": True, "edges": []},
            {"n": 3, "edges": [[0, 1.9]]},
            {"n": 3, "edges": [[True, 2]]},
            {"n": 3, "edges": [[0, 1, 2]]},
            {"n": 3, "edges": [0, 1]},
            {"n": 3, "edges": 5},
            [3, []],
        ],
    )
    def test_dict_form_is_not_coerced(self, doc):
        with pytest.raises(ValueError):
            GraphSpec.from_dict(doc)
        assert GraphSpec(3, [(True, 2.0)]).edges == {(1, 2)}  # callers in the program


def generators(graph: GraphSpec) -> list[np.ndarray]:
    """Generator K_k of :func:`kron_group` is the element with only bit k set."""
    return [kron_group(graph)[1 << k] for k in range(graph.n)]


class TestGenerators:
    """``kron_group`` is the test suite's only definition of the stabilizer group.

    Its entries are 0 and +-1, so every product below is exact.  Qubit 0 is the
    rightmost Kronecker factor.
    """

    def test_two_qubit_path(self):
        k0, k1 = generators(PATH2)
        np.testing.assert_array_equal(k0, np.kron(Z, X))
        np.testing.assert_array_equal(k1, np.kron(X, Z))

    def test_single_vertex(self):
        (k0,) = generators(GraphSpec(1))
        np.testing.assert_array_equal(k0, X)

    def test_three_qubit_path(self):
        k0, k1, k2 = generators(GraphSpec.preset("path-3"))
        np.testing.assert_array_equal(k0, np.kron(np.kron(np.eye(2), Z), X))
        np.testing.assert_array_equal(k1, np.kron(np.kron(Z, X), Z))
        np.testing.assert_array_equal(k2, np.kron(np.kron(X, Z), np.eye(2)))

    def test_all_pairs_commute_random_graphs(self):
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            for _ in range(2):
                group = kron_group(random_graph(rng, n))
                for si in group:
                    for sj in group:
                        np.testing.assert_array_equal(si @ sj, sj @ si)


class TestStabilizerElement:
    def test_two_path_full_index_is_yy(self):
        np.testing.assert_array_equal(kron_group(PATH2)[0b11], np.kron(Y, Y))

    def test_zero_index_is_identity(self):
        for graph in (PATH2, GraphSpec.preset("star-4")):
            np.testing.assert_array_equal(kron_group(graph)[0], np.eye(1 << graph.n))

    def test_single_vertex(self):
        np.testing.assert_array_equal(kron_group(GraphSpec(1))[1], X)

    def test_elements_square_to_identity(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 5):
            for s in kron_group(random_graph(rng, n)):
                np.testing.assert_array_equal(s @ s, np.eye(1 << n))

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            group = kron_group(random_graph(rng, n))
            for i, si in enumerate(group):
                for j, sj in enumerate(group):
                    assert np.trace(si @ sj) == ((1 << n) if i == j else 0)
