"""Exception types shared across the package."""


class BiobstacleError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpec(BiobstacleError):
    """Grid, operator, or control parameters violate a validity contract."""


class GridMismatch(BiobstacleError):
    """Two objects built on different grids were combined."""


class InfeasibleObstacles(BiobstacleError):
    """Obstacle pair has no positive separation (or too little for the solver)."""


class ComplementarityViolated(BiobstacleError):
    """A claimed solution fails the complementarity conditions."""


class InvalidD(BiobstacleError):
    """Reduced-equation domain does not sit between the inactive set and the
    complement of the strictly active set."""


class InvalidBeta(BiobstacleError):
    """Oscillation exponent outside the open interval (0, 1/2)."""


class EvaluationDomain(BiobstacleError):
    """Radial test function sampled outside its domain."""


class ConfigError(BiobstacleError):
    """Malformed or inconsistent experiment configuration."""


class AssertionFailure(BiobstacleError):
    """A verification suite failed; carries the report of what failed."""


class NotPositiveDefinite(BiobstacleError):
    """A free block of a symmetric operator failed its Cholesky
    factorization; the message names the first leading minor that is not
    positive."""


class NoConvergence(BiobstacleError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, method: str, iterations: int, residual: float):
        self.method = method
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"{method} did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
