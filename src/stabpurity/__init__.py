"""Purity and entropy bounds for graph states from stabilizer-generator measurements."""

from .diagonal import (
    CoeffVector,
    Spectrum,
    assemble_dense,
    coefficients,
    eigenvalues,
    entropy,
    purity,
    twirl,
    twirl_average,
    walsh_hadamard_inplace,
)
from .errors import (
    CertificateInvalid,
    DenseCapExceeded,
    InfeasibleRecord,
    NonPhysicalSpectrum,
    NonUnitTrace,
    NotConverged,
    StabPurityError,
)
from .estimator import (
    EntropyEstimate,
    KktCertificate,
    MeasurementRecord,
    PurityEstimate,
    binary_entropy,
    closed_form_is_optimal,
    entropy_lower_bound,
    entropy_max,
    estimate_entropy,
    kkt_certificate,
    min_purity,
    min_purity_coefficients,
    normalize_signs,
    pairwise_sums_ok,
    purity_error_bars,
)
from .oracle import (
    ORACLE_CAP,
    QpSolution,
    graph_state_vector,
    master_equation_evolve,
    max_entropy_numeric,
    qp_min_purity,
)
from .simulator import (
    dephased_coefficients,
    exact_entropy_dephased,
    exact_purity_dephased,
    exact_record,
    sample_measurements,
)
from .stabilizer import (
    DENSE_CAP,
    GraphSpec,
    PauliString,
    dense_matrix,
    expectation_value,
    generators,
    stabilizer_element,
)

__version__ = "0.1.0"
