"""Equilibrium mean field, feedback law, cost, and related diagnostics.

The equilibrium mean-field state z solves the forward ODE

    dz = [(A + C - (B+F) R^-1 B' P0) z - (B+F) R^-1 B' G] dt,   z(0) = z0,

and the mean-field control is ubar = -R^-1 B' (P0 z + G).  Under a given
mean field an agent plays the affine feedback u = -R^-1 B' (P1 x + g), the
tracking offset g driven by the mean-field paths (equilibrium_law).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PopulationError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import cumulative_trapezoid, expm, matrix_powers
from .params import SystemParams
from .riccati import RiccatiBundle, control, mean_field_path, solve_tracking_offset


@dataclass
class MeanField:
    """Equilibrium mean-field state and control paths."""

    z: VectorPath
    ubar: VectorPath


@dataclass
class FeedbackLaw:
    """Affine state feedback u = -R^-1 B' (P1 x + g) on the grid of its paths.

    simulate steps a law in its affine form u = gain x + offset (see the
    population module), with the node arrays gain = -R^-1 B' P1 and
    offset = -R^-1 B' g.  error_gain is None: every agent plays the same law.
    """

    params: SystemParams
    P1: MatrixPath
    g: VectorPath

    error_gain = None

    @property
    def grid(self) -> TimeGrid:
        return self.g.grid

    @cached_property
    def gain(self) -> np.ndarray:
        """-R^-1 B' P1 at every node, (K+1, d, n)."""
        return -(self.params.RinvBt @ self.P1.values)

    @cached_property
    def offset(self) -> np.ndarray:
        """-R^-1 B' g at every node, (K+1, d)."""
        return -(self.g.values @ self.params.RinvBtT)


def equilibrium_mf(bundle: RiccatiBundle, z0, k0: int = 0) -> MeanField:
    """Solve the equilibrium mean-field forward ODE from z(t_k0) = z0,
    under the bundle's step maps of mf_generator(P0).

    The paths live on the grid nodes k0..K (the whole grid for k0 = 0).  A
    z0 that is not a finite n-vector is a PopulationError.
    """
    n, z0 = bundle.params.n, np.asarray(z0, dtype=float)
    if z0.shape != (n,) or not np.isfinite(z0).all():
        raise PopulationError(f"z0 must be a finite vector of length n = {n}, "
                              f"got shape {z0.shape}: {z0.tolist()}")
    P0, G = bundle.P0.slice(k0), bundle.G.slice(k0)
    zv = mean_field_path(bundle.params, bundle.mf0_steps, G.values, z0, k0)
    ub = control(bundle.params, P0.values, zv, G.values)
    return MeanField(z=VectorPath(P0.grid, zv), ubar=VectorPath(P0.grid, ub))


def equilibrium_law(bundle: RiccatiBundle, mf: MeanField) -> FeedbackLaw:
    """Feedback law of the representative agent under a given mean field,
    on its grid: the bundle's, or a tail [t_k0, T] of it."""
    g = solve_tracking_offset(bundle, mf.z, mf.ubar)
    P1 = bundle.P1.slice(bundle.start_node(g.grid))
    return FeedbackLaw(params=bundle.params, P1=P1, g=g)


def cost(params: SystemParams, x_path: VectorPath, u_path: VectorPath, z_path: VectorPath) -> float:
    """Quadratic tracking cost of one realized path (trapezoid in time).

    Running terms:  |x - s|^2_{Q_I} + |x - (Gamma z + eta)|^2_Q + |u|^2_R,
    terminal terms: |x(T) - sbar|^2_{Qbar_I} + |x(T) - (Gammabar z(T) + etabar)|^2_{Qbar}.
    """
    grid = require_same_grid(x_path, u_path, z_path)
    x, u, z = x_path.values, u_path.values, z_path.values

    def quad(v, W):
        return np.einsum("ki,ij,kj->k", v, W, v)

    run = (
        quad(x - params.s, params.Q_I)
        + quad(x - (z @ params.Gamma.T + params.eta), params.Q)
        + quad(u, params.R)
    )
    integral = np.trapezoid(run, dx=grid.dt)
    xT = x[-1]
    dT1 = xT - params.sbar
    dT2 = xT - (params.Gammabar @ z[-1] + params.etabar)
    terminal = dT1 @ params.Qbar_I @ dT1 + dT2 @ params.Qbar @ dT2
    return float(integral + terminal)


def _opnorm(M) -> float:
    return float(np.linalg.norm(M, 2))


def existence_check(params: SystemParams, grid: TimeGrid):
    """Sufficient condition for a unique mean-field equilibrium.

    Splits the composite running weight Q_I + Q - Q*Gamma as Qp + S with
    Qp = Q_I + Q positive definite and S the symmetrized -Q*Gamma (its skew
    part discarded), and the terminal weight likewise.  Evaluates

        lhs = (1 + sqrt(T) * ||phi||_T * ||Ccal Qp^{-1/2}||) * (1 + N(S)),

    where phi(s, t) is the state-transition matrix of A, and returns
    {"satisfied": lhs < 2, "lhs": lhs}.  The sup in ||phi||_T runs over grid
    nodes; the inner integral uses the trapezoid rule.
    """
    QG, QGbar = params.Q @ params.Gamma, params.Qbar @ params.Gammabar
    Qp, S = params.Q_I + params.Q, -0.5 * (QG + QG.T)
    Qp_bar, S_bar = params.Qbar_I + params.Qbar, -0.5 * (QGbar + QGbar.T)
    for name, M in (("Qp", Qp), ("Qp_bar", Qp_bar)):
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise ValueError(f"{name} must be positive definite") from None

    # matrix square roots via eigendecomposition (weights are SPD)
    def sqrt_pair(M):
        w, V = np.linalg.eigh(np.asarray(M, dtype=float))
        return (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T

    Qb_half, Qb_nhalf = sqrt_pair(Qp_bar)
    _, Qp_nhalf = sqrt_pair(Qp)

    Ccal = params.BFRB
    K = grid.steps
    dt = grid.dt
    # phi(s, t) = exp(A (s - t)) depends only on the lag; powers per lag
    powers = matrix_powers(expm(params.A * dt), K).transpose(0, 2, 1)
    m_int = np.linalg.norm(powers @ Qb_half, 2, axis=(1, 2)) ** 2
    m_term = np.linalg.norm(powers @ Qb_nhalf, 2, axis=(1, 2)) ** 2
    cum = cumulative_trapezoid(m_int, dt)
    # node t_j has lag range [0, T - t_j], i.e. lags 0..K-j
    vals = np.sqrt(m_term[::-1] + cum[::-1])
    phi_norm = float(np.max(vals))

    NS = max(_opnorm(Qb_nhalf @ S_bar @ Qb_nhalf), _opnorm(Qp_nhalf @ S @ Qp_nhalf))
    lhs = (1.0 + np.sqrt(params.T) * phi_norm * _opnorm(Ccal @ Qp_nhalf)) * (1.0 + NS)
    return {"satisfied": bool(lhs < 2.0), "lhs": float(lhs)}


def epsilon_nash_gap(
    params: SystemParams,
    N: int,
    seed: int,
    grid: TimeGrid,
    z0,
    init_cov=None,
    D=None,
) -> float:
    """Empirical unilateral-deviation gap of the equilibrium feedback.

    Simulates N agents on grid under the equilibrium law, their initial
    states drawn around z0 with init_cov (zero if None), computes player 1's
    cost against the empirical averages, then recomputes player 1's best
    response to the frozen empirical mean-field paths (same noise) and returns
    J_1(equilibrium) - J_1(best response).  For D = 0 the best response is
    optimal pathwise in continuous time, so the gap is nonnegative up to the
    error of the Euler paths and the cost quadrature, which is second order
    in the step: on P6 with C = F = 0, N = 1 and no spread, where the
    equilibrium is the best response but for that error, the gap is -4.9e-7
    at K = 200 and shrinks 4x per doubling of K.  With noise, optimality
    holds in expectation only and single-seed gaps fluctuate around it.
    """
    from . import population

    if N < 2 and (params.C.any() or params.F.any()):
        raise PopulationError("N must be >= 2 for a game coupled through C or F")
    if init_cov is None:
        init_cov = np.zeros((params.n, params.n))
    bundle = RiccatiBundle.solve(params, grid)
    mf = equilibrium_mf(bundle, z0)
    law = equilibrium_law(bundle, mf)
    pop = population.sample_population(
        N, init_mean=z0, init_cov=init_cov,
        error_mean=np.zeros(params.n), error_cov=np.zeros((params.n, params.n)),
        seed=seed,
    )
    res = population.simulate(
        params, pop, law, mf_coupling="empirical", grid=grid, seed=seed, D=D)
    x_N, u_N = res.x_N, res.u_N
    tr1 = res.trace(0)
    J_eq = cost(params, tr1.x, tr1.u, x_N)

    # best response to the frozen empirical mean field, under the same noise
    law_br = equilibrium_law(bundle, MeanField(z=x_N, ubar=u_N))
    x_br, u_br = res.replay(0, law_br, x_N, u_N)
    # the deviator moves the empirical average by its own 1/N share
    x_N_dev = VectorPath(grid, x_N.values + (x_br.values - tr1.x.values) / N)
    J_br = cost(params, x_br, u_br, x_N_dev)
    return float(J_eq - J_br)
