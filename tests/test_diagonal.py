import numpy as np
import pytest

from stabpurity.diagonal import (
    CoeffVector,
    DenseCapExceeded,
    Spectrum,
    coefficients,
    dephased_coefficients,
    eigenvalues,
    purity,
    twirl,
    walsh_hadamard_inplace,
)
from stabpurity.oracle import graph_state_vector, master_equation_evolve
from stabpurity.stabilizer import DENSE_CAP, GraphSpec
from support import (
    kron_assemble,
    kron_group,
    kron_stabilizer_coefficients,
    random_density_matrix,
    random_graph,
    random_physical_coeffs,
)

PATH2 = GraphSpec.preset("path-2")
#: Path, ring and star graphs up to n = 6 (rings from n = 3, stars from n = 2).
FAMILIES = (
    [f"path-{n}" for n in range(1, 7)] + [f"ring-{n}" for n in range(3, 7)] + [f"star-{n}" for n in range(2, 7)]
)
#: The families, plus random graphs on 2..4 vertices drawn from one stream:
#: path-2, one edge and an isolated vertex, and five edges on four vertices.
_rng = np.random.default_rng(3)
GRAPHS = {name: GraphSpec.preset(name) for name in FAMILIES} | {
    f"random-{n}": random_graph(_rng, n) for n in (2, 3, 4)
}
A01 = np.exp(-0.1)


def unit_coeffs(n):
    c = np.zeros(1 << n)
    c[0] = 1.0
    return c


class TestVectors:
    def test_coeff_vector_requires_unit_leading_entry(self):
        for make in (
            lambda: CoeffVector(2, [0.5, 0, 0, 0]),
            lambda: CoeffVector(1, [np.nan, 0.5]),  # NaN fails the comparison too
            lambda: dephased_coefficients(PATH2, np.nan),
        ):
            with pytest.raises(ValueError, match=r"c\[0\]"):
                make()

    def test_coeff_vector_requires_power_of_two_length(self):
        with pytest.raises(ValueError, match="length"):
            CoeffVector(2, [1.0, 0.0])
        with pytest.raises(ValueError, match="at least one qubit"):
            CoeffVector(0, [1.0])

    def test_values_are_read_only(self):
        c = CoeffVector(1, [1.0, 0.5])
        with pytest.raises(ValueError):
            c.values[1] = 0.0


class TestTransform:
    def test_maximally_mixed(self):
        for n in (1, 3, 5):
            s = eigenvalues(CoeffVector(n, unit_coeffs(n)))
            np.testing.assert_allclose(s.values, np.full(1 << n, 0.5**n))

    def test_pure_graph_state(self):
        for n in (1, 2, 4):
            s = eigenvalues(CoeffVector(n, np.ones(1 << n)))
            expected = np.zeros(1 << n)
            expected[0] = 1.0
            np.testing.assert_allclose(s.values, expected, atol=1e-15)

    def test_two_qubit_closed_form(self):
        a1, a2 = 0.9, 0.7
        s = eigenvalues(CoeffVector(2, [1.0, a1, a2, a1 + a2 - 1.0]))
        np.testing.assert_allclose(
            s.values, [(a1 + a2) / 2, (1 - a1) / 2, (1 - a2) / 2, 0.0], atol=1e-15
        )

    def test_inverse_examples(self):
        n = 3
        c = coefficients(Spectrum(n, np.full(1 << n, 0.5**n)))
        np.testing.assert_allclose(c.values, unit_coeffs(n), atol=1e-15)
        delta = np.zeros(1 << n)
        delta[0] = 1.0
        np.testing.assert_allclose(coefficients(Spectrum(n, delta)).values, 1.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for n in (1, 4, 6):
            c = rng.uniform(-1, 1, size=1 << n)
            c[0] = 1.0
            spec = eigenvalues(CoeffVector(n, c))
            assert abs(spec.values.sum() - 1.0) < 1e-12  # normalization carries over
            back = coefficients(spec)
            np.testing.assert_allclose(back.values, c, atol=1e-12)

    def test_parseval_up_to_ten_qubits(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 8, 10):
            c = rng.uniform(-1, 1, size=1 << n)
            c[0] = 1.0
            vec = CoeffVector(n, c)
            lam = eigenvalues(vec).values
            assert abs(purity(vec) - np.dot(lam, lam)) < 1e-12

    def test_rejects_non_power_of_two_buffer(self):
        with pytest.raises(ValueError):
            walsh_hadamard_inplace(np.zeros(3))


class TestPurityEntropy:
    def test_purity_examples(self):
        assert purity(CoeffVector(3, np.ones(8))) == 1.0
        assert purity(CoeffVector(3, unit_coeffs(3))) == pytest.approx(1 / 8)
        c = CoeffVector(2, [1.0, A01, A01, 2 * A01 - 1.0])
        assert round(purity(c), 4) == 0.8233


class TestTwirl:
    def test_pure_graph_state_gives_all_ones(self):
        for name in FAMILIES:
            graph = GraphSpec.preset(name)
            psi = graph_state_vector(graph)
            c = twirl(np.outer(psi, psi.conj()), graph)
            np.testing.assert_allclose(c.values, 1.0, atol=1e-12, err_msg=name)

    def test_maximally_mixed_gives_unit_vector(self):
        c = twirl(np.eye(4) / 4, PATH2)
        np.testing.assert_allclose(c.values, unit_coeffs(2), atol=1e-15)

    def test_dephased_cluster_state(self):
        # independent oracle: dense master-equation integration at gamma*t = 0.1
        rho = master_equation_evolve(PATH2, gamma=1.0, t=0.1)
        c = twirl(rho, PATH2)
        expected = [1.0, np.exp(-0.1), np.exp(-0.1), np.exp(-0.2)]
        np.testing.assert_allclose(c.values, expected, atol=1e-8)

    @pytest.mark.parametrize("graph", GRAPHS.values(), ids=list(GRAPHS))
    def test_matches_kron_reference(self, graph):
        # random complex Hermitian rho: the CZ signs and the gather against
        # dense generator products built with np.kron
        rho = random_density_matrix(np.random.default_rng(graph.n), 1 << graph.n)
        np.testing.assert_allclose(
            twirl(rho, graph).values, kron_stabilizer_coefficients(rho, graph), atol=1e-12
        )

    def test_requires_unit_trace(self):
        for rho in (np.eye(4), np.full((4, 4), np.nan)):  # NaN fails the comparison too
            with pytest.raises(ValueError, match="trace"):
                twirl(rho, PATH2)

    def test_requires_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1j  # unit trace, but rho[1, 0] stays 0
        with pytest.raises(ValueError, match="Hermitian"):
            twirl(rho, PATH2)
        rho[1, 0] = -0.1j + 5e-10  # within the 1e-9 slack
        twirl(rho, PATH2)
        rho[1, 0] = np.nan  # NaN fails the comparison too
        with pytest.raises(ValueError, match="Hermitian"):
            twirl(rho, PATH2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected a 4 x 4 matrix"):
            twirl(np.eye(2) / 2, PATH2)

    def test_respects_cap(self):
        with pytest.raises(DenseCapExceeded):
            twirl(np.eye(2) / 2, GraphSpec.preset(f"path-{DENSE_CAP + 1}"))

    def test_agrees_with_group_average(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            graph = random_graph(rng, n)
            rho = random_density_matrix(rng, 1 << n)
            averaged = sum(s @ rho @ s for s in kron_group(graph)) / (1 << n)
            via_trace = kron_assemble(twirl(rho, graph).values, graph)
            np.testing.assert_allclose(averaged, via_trace, atol=1e-12)


class TestAssemble:
    def test_unit_vector_gives_maximally_mixed(self):
        for n in (1, 3):
            g = GraphSpec.preset(f"path-{n}")
            np.testing.assert_allclose(
                kron_assemble(unit_coeffs(n), g), np.eye(1 << n) / (1 << n)
            )

    def test_all_ones_is_rank_one_projector(self):
        rho = kron_assemble(np.ones(4), PATH2)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0)
        psi = graph_state_vector(PATH2)
        np.testing.assert_allclose(rho @ psi, psi, atol=1e-12)

    def test_twirl_round_trip(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            graph = random_graph(rng, n)
            c = random_physical_coeffs(rng, n)
            back = twirl(kron_assemble(c, graph), graph)
            np.testing.assert_allclose(back.values, c, atol=1e-12)

    def test_spectrum_matches_dense_diagonalization(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            graph = random_graph(rng, n)
            c = CoeffVector(n, random_physical_coeffs(rng, n))
            dense_eigs = np.sort(np.linalg.eigvalsh(kron_assemble(c.values, graph)))
            np.testing.assert_allclose(
                dense_eigs, np.sort(eigenvalues(c).values), atol=1e-9
            )
