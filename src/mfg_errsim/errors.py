"""Exception hierarchy shared across the package."""


class MfgError(Exception):
    """Base class for all package-specific errors."""


class IntegrationBlowupError(MfgError):
    """An integrator produced a non-finite value."""

    def __init__(self, message, node=None, time=None):
        super().__init__(message)
        self.node = node
        self.time = time


class FiniteEscapeError(IntegrationBlowupError):
    """A Riccati solution escaped to infinity before reaching t = 0."""


class SingularMatrixError(MfgError):
    """A matrix that must be invertible is numerically singular."""


class IdentifiabilityError(MfgError):
    """The stacked observability system does not have full rank."""


class GridMismatchError(ValueError, MfgError):
    """Paths passed to an operation do not share a grid."""


class ParamsMismatchError(ValueError, MfgError):
    """Objects passed to an operation carry different parameter sets."""


class PopulationError(ValueError, MfgError):
    """A population does not fit the parameter set or the law it plays."""


class EstimatorPolicyError(ValueError, MfgError):
    """An estimator policy returned errors that do not fit the population."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConfigError(ValueError, MfgError):
    """A scenario configuration document failed validation."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{field}: {reason}" for field, reason in self.problems)
        super().__init__(f"invalid configuration: {lines}")
