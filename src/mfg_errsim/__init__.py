"""Numerics for linear-quadratic mean-field games where agents act on
erroneous initial information: equilibrium solves, error-propagation maps,
one-time error correction, per-instant re-estimation, and finite-population
Monte Carlo, plus a batch experiment CLI."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EstimatorPolicyError,
    FiniteEscapeError,
    GridMismatchError,
    IdentifiabilityError,
    IntegrationBlowupError,
    MfgError,
    ParamsMismatchError,
    PopulationError,
    SingularMatrixError,
)
from .grid import MatrixPath, TimeGrid, VectorPath
from .params import SystemParams, p6_params, s1_params

__all__ = [
    "__version__",
    "ConfigError",
    "EstimatorPolicyError",
    "FiniteEscapeError",
    "GridMismatchError",
    "IdentifiabilityError",
    "IntegrationBlowupError",
    "MfgError",
    "ParamsMismatchError",
    "PopulationError",
    "SingularMatrixError",
    "MatrixPath",
    "TimeGrid",
    "VectorPath",
    "SystemParams",
    "p6_params",
    "s1_params",
]
