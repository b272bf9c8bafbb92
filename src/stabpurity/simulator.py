"""Simulated dephasing experiments on graph states.

Single-qubit dephasing at rate gamma for time t shrinks the expectation of any
Pauli with X or Y support on a qubit by e^{-gamma t} per affected qubit, so
every function here takes the one dimensionless strength ``gamma_t``.  The
stabilizer-group element with index i carries X or Y on exactly the qubits
with bit i set (each generator contributes one X), so an initially perfect
graph state decays as

    c[i] = exp(-gamma_t popcount(i)),

giving the product spectrum lambda_j = prod_k (1 + (-1)^{j_k} e^{-gamma_t})/2
and the closed forms implemented below.  The decay law is cross-checked
against the dense master-equation integrator in the oracle module, and the
closed forms against the materialized 2^n spectrum in the tests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .estimator import MeasurementRecord, binary_entropy
from .stabilizer import GraphSpec

if TYPE_CHECKING:  # numpy loads only where a 2^n vector or a sample is made
    from .diagonal import CoeffVector

#: Identifier of the pseudo-random stream, recorded in serialized output.
RNG_ALGORITHM = "numpy-pcg64"


def dephased_coefficients(graph: GraphSpec, gamma_t: float) -> CoeffVector:
    """Coefficient vector exp(-gamma_t popcount(i)) of the dephased graph state."""
    import numpy as np

    from .diagonal import CoeffVector

    idx = np.arange(1 << graph.n)
    weights = np.bitwise_count(idx).astype(float)
    return CoeffVector(graph.n, np.exp(-gamma_t * weights))


def exact_record(graph: GraphSpec, gamma_t: float) -> MeasurementRecord:
    """Infinite-statistics record: every generator expectation is e^{-gamma_t}."""
    return MeasurementRecord(graph.n, [math.exp(-gamma_t)] * graph.n)


def exact_purity_dephased(graph: GraphSpec, gamma_t: float) -> float:
    """Purity ((1 + e^{-2 gamma_t})/2)^n of the dephased state."""
    return ((1.0 + math.exp(-2.0 * gamma_t)) / 2.0) ** graph.n


def exact_entropy_dephased(graph: GraphSpec, gamma_t: float) -> float:
    """Entropy n h((1 + e^{-gamma_t})/2) of the dephased state (natural log)."""
    return graph.n * binary_entropy((1.0 + math.exp(-gamma_t)) / 2.0)


def sample_measurements(a_true, shots: int, seed: int) -> MeasurementRecord:
    """Finite-shot record for the true generator expectations ``a_true`` in [-1, 1].

    Each generator gets ``shots`` independent +-1 outcomes with
    P(+1) = (1 + a_k)/2 from a PCG64 stream seeded with ``seed``; the record
    holds the sample means and plug-in standard errors
    sqrt((1 - ahat^2)/shots).  Identical arguments give identical records.
    """
    import numpy as np

    if shots < 1:
        raise ValueError("need at least one shot per generator")
    a_true = np.atleast_1d(np.asarray(a_true, dtype=float))
    if np.any(np.abs(a_true) > 1.0):
        raise ValueError("true expectations must lie in [-1, 1]")
    rng = np.random.default_rng(seed)
    plus_counts = rng.binomial(shots, (1.0 + a_true) / 2.0)
    a_hat = 2.0 * plus_counts / shots - 1.0
    delta = np.sqrt(np.maximum(0.0, 1.0 - a_hat**2) / shots)
    return MeasurementRecord(a_true.size, a_hat, delta)
