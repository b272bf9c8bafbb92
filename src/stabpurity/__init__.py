"""Purity and entropy bounds for graph states from stabilizer-generator measurements.

The names below load lazily (PEP 562): ``import stabpurity`` imports no
submodule, and the first access to a name imports the module defining it.
So the estimator, and ``stabpurity estimate``, run without numpy.
"""

import importlib

_EXPORTS = {
    "diagonal": (
        "CoeffVector",
        "Spectrum",
        "assemble_dense",
        "coefficients",
        "eigenvalues",
        "entropy",
        "purity",
        "twirl",
        "twirl_average",
        "walsh_hadamard_inplace",
    ),
    "errors": (
        "CertificateInvalid",
        "DenseCapExceeded",
        "InfeasibleRecord",
        "NonPhysicalSpectrum",
        "NonUnitTrace",
        "NotConverged",
        "StabPurityError",
    ),
    "estimator": (
        "EntropyEstimate",
        "KktCertificate",
        "MeasurementRecord",
        "PurityEstimate",
        "binary_entropy",
        "closed_form_is_optimal",
        "entropy_lower_bound",
        "entropy_max",
        "estimate_entropy",
        "kkt_certificate",
        "min_purity",
        "min_purity_coefficients",
        "normalize_signs",
        "pairwise_sums_ok",
        "purity_error_bars",
    ),
    "oracle": (
        "ORACLE_CAP",
        "QpSolution",
        "graph_state_vector",
        "master_equation_evolve",
        "max_entropy_numeric",
        "qp_min_purity",
    ),
    "simulator": (
        "dephased_coefficients",
        "exact_entropy_dephased",
        "exact_purity_dephased",
        "exact_record",
        "sample_measurements",
    ),
    "stabilizer": (
        "DENSE_CAP",
        "GraphSpec",
        "PauliString",
        "dense_matrix",
        "expectation_value",
        "generators",
        "stabilizer_element",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as after an eager import
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
