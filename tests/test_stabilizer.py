import numpy as np
import pytest

from stabpurity.errors import DenseCapExceeded
from stabpurity.stabilizer import (
    DENSE_CAP,
    GraphSpec,
    PauliString,
    dense_matrix,
    expectation_value,
    generators,
    stabilizer_element,
)
from support import random_density_matrix, random_graph

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PATH2 = GraphSpec.preset("path-2")


class TestGraphSpec:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphSpec.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphSpec.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            GraphSpec.from_edges(2, [(0, 2)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            GraphSpec(0)

    def test_single_vertex_valid(self):
        g = GraphSpec(1)
        assert g.neighbor_mask(0) == 0

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
        assert GraphSpec.from_edges(3.0, [(True, 2.0)]).edges == {(1, 2)}  # callers in the program


class TestGenerators:
    def test_two_qubit_path(self):
        assert [str(k) for k in generators(PATH2)] == ["+XZ", "+ZX"]

    def test_single_vertex(self):
        assert [str(k) for k in generators(GraphSpec(1))] == ["+X"]

    def test_three_qubit_path(self):
        got = [str(k) for k in generators(GraphSpec.preset("path-3"))]
        assert got == ["+XZI", "+ZXZ", "+IZX"]

    def test_all_pairs_commute_random_graphs(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for _ in range(4):
                gens = generators(random_graph(rng, n))
                assert all(p.commutes_with(q) for p in gens for q in gens)


class TestStabilizerElement:
    def test_two_path_full_index_is_yy(self):
        el = stabilizer_element(PATH2, 0b11)
        assert str(el) == "+YY"
        assert el.phase == 1
        # oracle: Kronecker product, qubit 0 fastest
        np.testing.assert_allclose(dense_matrix(el), np.kron(Y, Y))

    def test_zero_index_is_identity(self):
        for graph in (PATH2, GraphSpec.preset("star-4")):
            el = stabilizer_element(graph, 0)
            assert el == PauliString.identity(graph.n)

    def test_single_vertex(self):
        assert str(stabilizer_element(GraphSpec(1), 1)) == "+X"

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            stabilizer_element(PATH2, 4)

    def test_matches_dense_generator_products(self):
        rng = np.random.default_rng(5)
        for n in range(1, 6):
            graph = random_graph(rng, n)
            dense_gens = [dense_matrix(k) for k in generators(graph)]
            for idx in range(1 << n):
                expected = np.eye(1 << n, dtype=complex)
                for k in range(n):
                    if (idx >> k) & 1:
                        expected = expected @ dense_gens[k]
                np.testing.assert_allclose(
                    dense_matrix(stabilizer_element(graph, idx)), expected, atol=1e-12
                )

    def test_elements_square_to_identity(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 5):
            graph = random_graph(rng, n)
            for idx in range(1 << n):
                el = stabilizer_element(graph, idx)
                assert el.phase_exp in (0, 2)  # Hermitian, phase +-1
                assert el * el == PauliString.identity(n)

    def test_trace_orthogonality(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            graph = random_graph(rng, n)
            mats = [dense_matrix(stabilizer_element(graph, i)) for i in range(1 << n)]
            for i, mi in enumerate(mats):
                for j, mj in enumerate(mats):
                    tr = np.trace(mi @ mj)
                    assert abs(tr - ((1 << n) if i == j else 0.0)) < 1e-9


class TestPauliAlgebra:
    def test_xz_phase_convention(self):
        x = PauliString(1, 1, 0)
        z = PauliString(1, 0, 1)
        assert str(x * z) == "-iY"  # XZ = -iY
        assert str(z * x) == "+iY"
        assert str(x * x) == "+I"

    def test_multiplication_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                            int(rng.integers(4)))
            q = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                            int(rng.integers(4)))
            np.testing.assert_allclose(
                dense_matrix(p * q), dense_matrix(p) @ dense_matrix(q), atol=1e-12
            )

    def test_commutes_examples(self):
        k1, k2 = generators(PATH2)
        assert k1.commutes_with(k2)
        assert not PauliString(1, 1, 0).commutes_with(PauliString(1, 0, 1))
        assert k1.commutes_with(PauliString.identity(2))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            PauliString(1, 1, 0).commutes_with(PauliString(2, 1, 0))


class TestDense:
    def test_single_x(self):
        np.testing.assert_array_equal(dense_matrix(PauliString(1, 1, 0)), X)

    def test_identity(self):
        np.testing.assert_array_equal(dense_matrix(PauliString.identity(2)), np.eye(4))

    def test_hermitian_for_real_phase(self):
        p = PauliString(3, 0b101, 0b110)
        m = dense_matrix(p)
        assert p.is_hermitian
        np.testing.assert_allclose(m, m.conj().T)

    def test_cap(self):
        with pytest.raises(DenseCapExceeded):
            dense_matrix(PauliString(DENSE_CAP + 1, 1, 0))

    def test_expectation_value_matches_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            graph = random_graph(rng, n)
            idx = int(rng.integers(1 << n))
            el = stabilizer_element(graph, idx)
            rho = random_density_matrix(rng, 1 << n)
            direct = np.trace(rho @ dense_matrix(el)).real
            assert abs(expectation_value(rho, el) - direct) < 1e-12
