"""Exception types shared across the package."""


class StabPurityError(Exception):
    """Base class for all package-specific errors."""


class DenseCapExceeded(StabPurityError):
    """Raised when an operation would materialize a 2^n-sized object above the cap."""

    def __init__(self, n: int, cap: int, what: str):
        super().__init__(f"{what} requires n <= {cap}, got n = {n}")


class NonUnitTrace(StabPurityError):
    """Input density matrix does not have unit trace."""


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
    """The closed form's inequality multipliers are not all nonnegative.

    Carries the offending index (a bitmask over generators) and the
    certificate, whose ``min_mu`` is the most negative multiplier, so callers
    can still inspect it.
    """

    def __init__(self, index: int, certificate):
        self.index = index
        self.certificate = certificate
        super().__init__(
            f"optimality certificate failed: mu >= 0 at index {index:#x} "
            f"(value = {certificate.min_mu:.6g}); the closed-form purity is an upper bound but "
            f"may exceed the true minimum for this record"
        )


class NotConverged(StabPurityError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3g})"
        )
