"""Exception types shared across the package."""


class StabPurityError(Exception):
    """Base class for all package-specific errors."""


class DenseCapExceeded(StabPurityError):
    """Raised when an operation would materialize a 2^n-sized object above the cap."""

    def __init__(self, n: int, cap: int, what: str = "dense realization"):
        self.n = n
        self.cap = cap
        super().__init__(f"{what} requires n <= {cap}, got n = {n}")


class NonUnitTrace(StabPurityError):
    """Input density matrix does not have unit trace."""


class NonPhysicalSpectrum(StabPurityError):
    """Spectrum has an eigenvalue below the negativity floor."""


class InfeasibleRecord(StabPurityError):
    """Measurement record violates the closed-form feasibility gate (lambda_0 < 0)."""

    def __init__(self, lambda0: float, n: int):
        self.lambda0 = lambda0
        self.n = n
        super().__init__(
            f"sum(a) = {2 * lambda0 + n - 2:.6g} < n - 2 = {n - 2}: the closed-form "
            f"candidate state has lambda_0 = {lambda0:.6g} < 0; use the numeric solver "
            f"for small n instead"
        )


class CertificateInvalid(StabPurityError):
    """Constructed multipliers fail an optimality condition.

    Carries the failing condition name, the offending index, the value, and the
    full certificate so callers can still inspect residuals.
    """

    def __init__(self, condition: str, index: int, value: float, certificate=None):
        self.condition = condition
        self.index = index
        self.value = value
        self.certificate = certificate
        super().__init__(
            f"optimality certificate failed: {condition} at index {index} "
            f"(value = {value:.6g}); the closed-form purity is an upper bound but "
            f"may exceed the true minimum for this record"
        )


class NotConverged(StabPurityError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3g})"
        )
