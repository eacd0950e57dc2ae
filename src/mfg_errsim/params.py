"""System parameters and canonical fixtures.

SystemParams collects every model matrix/vector of the game: state dynamics
(A, B, C, F, D), running and terminal cost weights (Q_I, Q, Qbar_I, Qbar, R),
tracking couplings (Gamma, Gammabar) and targets (eta, etabar, s, sbar), and
the horizon T, with the read-only compounds of R^-1 that the solvers and
the simulation read at every node.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import ParamsMismatchError
from .grid import TimeGrid


def _mat(x, n, m, name):
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape != (n, m):
        raise ValueError(f"{name} must be {n}x{m}, got {a.shape}")
    return _finite(a, name)


def _vec(x, n, name):
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got {a.shape}")
    return _finite(a, name)


def _finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must have finite entries")
    return a


def _check_weight(M, name, definite):
    """Raise unless M is symmetric and positive definite (definite) or
    semidefinite, up to rounding at M's scale."""
    if not np.allclose(M, M.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    low = np.linalg.eigvalsh(M)[0]
    if definite and not low > 0.0:
        raise ValueError(f"{name} must be positive definite")
    if low < -1e-12 * np.abs(M).max():
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class SystemParams:
    """The game's matrices and horizon, with the compounds, computed once
    and read-only: Rinv = R^-1, RinvBt = R^-1 B', RinvBtT its contiguous
    transpose (the right operand of the feedback control), BRB = B R^-1 B',
    BFRB = (B + F) R^-1 B' and FRB = F R^-1 B'."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    F: np.ndarray
    D: np.ndarray
    Q_I: np.ndarray
    Q: np.ndarray
    Qbar_I: np.ndarray
    Qbar: np.ndarray
    R: np.ndarray
    Gamma: np.ndarray
    Gammabar: np.ndarray
    eta: np.ndarray
    etabar: np.ndarray
    s: np.ndarray
    sbar: np.ndarray
    T: float

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.A)).shape[0]
        d = np.atleast_2d(np.asarray(self.R)).shape[0]
        for name in ("A", "C", "D", "Q_I", "Q", "Qbar_I", "Qbar", "Gamma", "Gammabar"):
            object.__setattr__(self, name, _mat(getattr(self, name), n, n, name))
        # F multiplies the d-vector ubar, as B multiplies u
        for name in ("B", "F"):
            object.__setattr__(self, name, _mat(getattr(self, name), n, d, name))
        object.__setattr__(self, "R", _mat(self.R, d, d, "R"))
        for name in ("eta", "etabar", "s", "sbar"):
            object.__setattr__(self, name, _vec(getattr(self, name), n, name))
        if not 0 < self.T < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        # the LQ problem needs R > 0 and the state weights >= 0
        for name in ("Q_I", "Q", "Qbar_I", "Qbar", "R"):
            _check_weight(getattr(self, name), name, definite=name == "R")
        # the compounds below are read at every node of the solvers and the
        # simulation, so they are computed once here; every caller shares
        # them, so they are read-only.  Finite entries can still overflow
        # here, which is reported as a ValueError naming the compound.
        # Rinv stays a property, whose reads perfbench/tracing.py counts.
        with np.errstate(over="ignore", invalid="ignore"):
            Rinv = np.linalg.inv(self.R)
            RinvBt = Rinv @ self.B.T
            compounds = (
                ("_Rinv", Rinv),
                ("RinvBt", RinvBt),
                ("RinvBtT", np.ascontiguousarray(RinvBt.T)),
                ("BRB", self.B @ RinvBt),
                ("BFRB", (self.B + self.F) @ RinvBt),
                ("FRB", self.F @ RinvBt),
            )
        for name, value in compounds:
            if not np.isfinite(value).all():
                raise ValueError(f"{name.lstrip('_')} overflows")
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.R.shape[0]

    @property
    def Rinv(self) -> np.ndarray:
        return self._Rinv

    @property
    def Qcal(self) -> np.ndarray:
        """Composite running weight Q*Gamma - Q_I - Q of the coupled system."""
        return self.Q @ self.Gamma - self.Q_I - self.Q

    @property
    def nu(self) -> np.ndarray:
        """Composite running target Q_I s + Q eta."""
        return self.Q_I @ self.s + self.Q @ self.eta

    @cached_property
    def key(self) -> tuple:
        """The horizon and the shape and bytes of every array field: two
        sets with equal keys are the same game."""
        arrays = (getattr(self, f.name) for f in fields(self))
        return (self.T,) + tuple(
            (a.shape, a.tobytes()) for a in arrays if isinstance(a, np.ndarray))

    def with_(self, **kw) -> "SystemParams":
        return replace(self, **kw)

    def default_grid(self, steps: int = 2000) -> TimeGrid:
        return TimeGrid(0.0, self.T, steps)


def require_same_params(params: SystemParams, owner, what: str) -> None:
    """Raise ParamsMismatchError unless params is the parameter set owner
    (a feedback law or a Riccati bundle, named by what) carries."""
    if params is not owner.params and params.key != owner.params.key:
        raise ParamsMismatchError(f"params differ from the parameter set of the {what}")


def p6_params() -> SystemParams:
    """Canonical 2-d fixture "P6".

    sbar is set equal to s (the barred quantities mirror the unbarred ones
    elsewhere in the fixture).
    """
    I = np.eye(2)
    s = np.array([0.5, 0.3])
    return SystemParams(
        A=-I, B=0.5 * I, C=0.5 * I, F=0.5 * I, D=0.05 * I,
        Q_I=I, Q=I, Qbar_I=I, Qbar=I, R=I,
        Gamma=I, Gammabar=I,
        eta=np.zeros(2), etabar=np.zeros(2), s=s, sbar=s,
        T=2.0,
    )


P6_Z0 = np.array([0.3, 0.5])
P6_INIT_COV = 0.003 * np.eye(2)
P6_ERROR_COV = 0.1 * np.eye(2)
P6_EBAR_BASE = np.array([0.1, -0.1])


def s1_params() -> SystemParams:
    """Scalar fixture "S1": stationary Riccati with P1(T) at the fixed point."""
    one = np.eye(1)
    z = np.zeros(1)
    return SystemParams(
        A=0 * one, B=one, C=0 * one, F=0 * one, D=0 * one,
        Q_I=0.5 * one, Q=0.5 * one, Qbar_I=0.5 * one, Qbar=0.5 * one, R=one,
        Gamma=0 * one, Gammabar=0 * one,
        eta=z, etabar=z, s=z, sbar=z,
        T=2.0,
    )
