"""Simulated dephasing experiments on graph states.

Single-qubit dephasing at rate gamma shrinks the expectation of any Pauli
with X or Y support on a qubit by e^{-gamma t} per affected qubit.  The
stabilizer-group element with index i carries X or Y on exactly the qubits
with bit i set (each generator contributes one X), so an initially perfect
graph state decays as

    c[i](t) = exp(-gamma t popcount(i)),

giving the product spectrum lambda_j = prod_k (1 + (-1)^{j_k} e^{-gamma t})/2
and the closed forms implemented below.  The decay law is cross-checked
against the dense master-equation integrator in the oracle module, and the
closed forms against the materialized 2^n spectrum in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagonal import CoeffVector
from .estimator import MeasurementRecord, binary_entropy
from .stabilizer import GraphSpec

#: Identifier of the pseudo-random stream, recorded in serialized output.
RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class NoiseParams:
    """Dephasing rate and evolution time; gamma_t is the canonical knob."""

    gamma: float
    t: float

    def __post_init__(self):
        if self.gamma < 0.0 or self.t < 0.0:
            raise ValueError("gamma and t must be nonnegative")

    @property
    def gamma_t(self) -> float:
        return self.gamma * self.t

    @classmethod
    def from_gamma_t(cls, gamma_t: float) -> "NoiseParams":
        return cls(gamma=float(gamma_t), t=1.0)


@dataclass(frozen=True)
class ShotPlan:
    """Per-generator shot count and the seed of the sampling stream."""

    shots_per_generator: int
    seed: int

    def __post_init__(self):
        if self.shots_per_generator < 1:
            raise ValueError("need at least one shot per generator")


def dephased_coefficients(graph: GraphSpec, noise: NoiseParams) -> CoeffVector:
    """Coefficient vector exp(-gamma t popcount(i)) of the dephased graph state."""
    idx = np.arange(1 << graph.n)
    weights = np.bitwise_count(idx).astype(float)
    return CoeffVector(graph.n, np.exp(-noise.gamma_t * weights))


def exact_record(graph: GraphSpec, noise: NoiseParams) -> MeasurementRecord:
    """Infinite-statistics record: every generator expectation is e^{-gamma t}."""
    return MeasurementRecord(graph.n, np.full(graph.n, math.exp(-noise.gamma_t)))


def exact_purity_dephased(graph: GraphSpec, noise: NoiseParams) -> float:
    """Purity ((1 + e^{-2 gamma t})/2)^n of the dephased state."""
    return ((1.0 + math.exp(-2.0 * noise.gamma_t)) / 2.0) ** graph.n


def exact_entropy_dephased(graph: GraphSpec, noise: NoiseParams) -> float:
    """Entropy n h((1 + e^{-gamma t})/2) of the dephased state (natural log)."""
    return graph.n * binary_entropy((1.0 + math.exp(-noise.gamma_t)) / 2.0)


def sample_measurements(source, plan: ShotPlan) -> MeasurementRecord:
    """Finite-shot record for the given true expectations.

    ``source`` is either a CoeffVector (its single-generator entries are the
    truth) or a sequence of expectations in [-1, 1].  Each generator gets
    ``plan.shots_per_generator`` independent +-1 outcomes with
    P(+1) = (1 + a_k)/2 from a PCG64 stream seeded with ``plan.seed``; the
    record holds the sample means and plug-in standard errors
    sqrt((1 - ahat^2)/shots).  Identical (source, plan) give identical records.
    """
    if isinstance(source, CoeffVector):
        a_true = source.generator_expectations()
    else:
        a_true = np.atleast_1d(np.asarray(source, dtype=float))
    if np.any(np.abs(a_true) > 1.0):
        raise ValueError("true expectations must lie in [-1, 1]")
    n = a_true.size
    shots = plan.shots_per_generator
    rng = np.random.default_rng(plan.seed)
    plus_counts = rng.binomial(shots, (1.0 + a_true) / 2.0)
    a_hat = 2.0 * plus_counts / shots - 1.0
    delta = np.sqrt(np.maximum(0.0, 1.0 - a_hat**2) / shots)
    return MeasurementRecord(n, a_hat, delta, np.full(n, shots, dtype=np.int64))
