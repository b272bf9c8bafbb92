"""Simulated dephasing experiments on graph states.

Single-qubit dephasing at rate gamma for time t shrinks the expectation of any
Pauli with X or Y support on a qubit by e^{-gamma t} per affected qubit, so
every function here takes the one dimensionless strength ``gamma_t``.  The
stabilizer-group element with index i carries X or Y on exactly the qubits
with bit i set (each generator contributes one X), so an initially perfect
graph state decays as

    c[i] = exp(-gamma_t popcount(i)),

giving the product spectrum lambda_j = prod_k (1 + (-1)^{j_k} e^{-gamma_t})/2
and the closed forms implemented below.  ``diagonal.dephased_coefficients``
builds that 2^n vector, which the oracle module checks against its dense
master-equation integrator; the tests check the closed forms against it.

``sample_measurements`` draws finite-shot records from numpy's seeded
binomial stream, reproduced bit for bit without numpy by the ``pcg64`` module.

``reference_table`` rebuilds the paper table behind ``reproduce-tables``: the
estimated bounds against the exact values for dephased path graphs, n = 2..4,
checked against 4-decimal reference values.
"""

import math

from .estimator import MeasurementRecord, binary_entropy, estimate_entropy, min_purity
from .stabilizer import GraphSpec

#: Identifier of the pseudo-random stream, recorded in serialized output: the
#: draws are numpy's ``default_rng(seed).binomial``, made by ``pcg64``.
RNG_ALGORITHM = "numpy-pcg64"

#: Reference values for the dephased-path summary at gamma*t = 0.1, keyed by n:
#: (exact, estimated, relative deviation), all rounded to 4 decimals.  The
#: deviation column is (exact - estimated)/exact evaluated on the rounded
#: values, which is the convention the reference table uses.
PURITY_REFERENCE = {2: (0.8269, 0.8233, 0.0044), 3: (0.7520, 0.7417, 0.0137), 4: (0.6838, 0.6646, 0.0281)}
ENTROPY_REFERENCE = {2: (0.3827, 0.3803, 0.0063), 3: (0.5740, 0.5667, 0.0127), 4: (0.7653, 0.7505, 0.0193)}
TABLES_GAMMA_T = 0.1


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
    P(+1) = (1 + a_k)/2: the +1 counts are numpy's
    ``default_rng(seed).binomial(shots, p)``, drawn by the pure-Python copy
    of that stream in ``pcg64``.  The record holds the sample means and
    plug-in standard errors sqrt((1 - ahat^2)/shots).  ``a_true`` may be a
    scalar, a sequence or a numpy array.  Identical arguments give identical
    records.
    """
    from .pcg64 import PCG64

    if not 1 <= shots < 2**63:
        raise ValueError("need between 1 and 2**63 - 1 shots per generator")
    values = a_true.tolist() if hasattr(a_true, "tolist") else a_true
    a_true = [float(a) for a in (values if hasattr(values, "__iter__") else [values])]
    if not all(abs(a) <= 1.0 for a in a_true):  # NaN fails this comparison too
        raise ValueError("true expectations must lie in [-1, 1]")
    rng = PCG64(seed)
    plus_counts = [rng.binomial(shots, (1.0 + a) / 2.0) for a in a_true]
    a_hat = [2.0 * k / shots - 1.0 for k in plus_counts]
    delta = [math.sqrt(max(0.0, 1.0 - a * a) / shots) for a in a_hat]
    return MeasurementRecord(len(a_true), a_hat, delta)


def reference_table() -> dict:
    """Exact and estimated purity/entropy for dephased path graphs, n = 2..4.

    Returns ``{"gamma_t", "rows", "all_match"}``.  Each row holds the
    full-precision values plus the 4-decimal roundings; the deviation column
    is computed from the rounded values (the convention of the reference
    numbers), and ``matches`` compares all three with the reference.
    """
    rows = []
    for n in (2, 3, 4):
        graph = GraphSpec.preset(f"path-{n}")
        record = exact_record(graph, TABLES_GAMMA_T)
        exact_p = exact_purity_dephased(graph, TABLES_GAMMA_T)
        est_p = min_purity(record).p_min
        exact_s = exact_entropy_dephased(graph, TABLES_GAMMA_T)
        est_s = estimate_entropy(record).s_lower
        row = {"n": n, "gamma_t": TABLES_GAMMA_T}
        for name, exact, est, ref in (
            ("purity", exact_p, est_p, PURITY_REFERENCE[n]),
            ("entropy", exact_s, est_s, ENTROPY_REFERENCE[n]),
        ):
            rounded_exact, rounded_est = round(exact, 4), round(est, 4)
            deviation = round((rounded_exact - rounded_est) / rounded_exact, 4)
            row[name] = {
                "exact": exact,
                "estimated": est,
                "exact_4dp": rounded_exact,
                "estimated_4dp": rounded_est,
                "deviation_4dp": deviation,
                "reference": list(ref),
                "matches": (rounded_exact, rounded_est, deviation) == ref,
            }
        rows.append(row)
    all_match = all(r["purity"]["matches"] and r["entropy"]["matches"] for r in rows)
    return {"gamma_t": TABLES_GAMMA_T, "rows": rows, "all_match": all_match}
