"""One-time recovery of information errors from an agent's own trajectory.

An agent observes its own state and control, so the drift residual

    Ob(t) = x_dot - A x - B u = C z_A(t) + F ubar_A(t)

reveals the mean field it actually lives in.  Subtracting the agent's own
prediction leaves an affine function of the unknown errors,

    Ob1(t) = K1(t) Ebar + K2(t) E_i,

with the error maps K1 and K2 of the parameter set, which its Riccati
bundle keeps (see deviations): the mean-field drift C z + F ubar
(riccati.mf_drift) of the realized deviation and minus that of the
agent's predicted one.  Sampling Ob1 at the
DEFAULT_SAMPLES equispaced nodes in (0, t0] and stacking gives a linear
system; if its rank is 2n the errors are uniquely recoverable, the true
mean field at t0 follows from the agent's own prediction z_i(t0), and the
game restarts from it, as the equilibrium and its law on [t0, T] under the
bundle's parameters.  Paths combined here must share a grid
(GridMismatchError otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import equilibrium_law, equilibrium_mf
from .errors import IdentifiabilityError
from .grid import MatrixPath, VectorPath, require_same_grid
from .params import SystemParams
from .riccati import RiccatiBundle, control, mf_drift

# relative singular-value cutoff of the identifiability rank, and the
# number of nodes build_correction_problem samples Ob1 at
SV_TOL = 1e-8
DEFAULT_SAMPLES = 8


def observable_path(x: VectorPath, u: VectorPath, params: SystemParams) -> VectorPath:
    """Ob(t) = x_dot - A x - B u from an agent's realized state and control
    paths, with x_dot estimated by second-order finite differences (central
    inside, one-sided at the ends), which is all a real agent can do."""
    grid = require_same_grid(x, u)
    if grid.steps < 2:
        raise ValueError("need at least three nodes to estimate the drift")
    xv, uv = x.values, u.values
    dt = grid.dt
    xdot = np.empty_like(xv)
    xdot[1:-1] = (xv[2:] - xv[:-2]) / (2.0 * dt)
    xdot[0] = (-3.0 * xv[0] + 4.0 * xv[1] - xv[2]) / (2.0 * dt)
    xdot[-1] = (3.0 * xv[-1] - 4.0 * xv[-2] + xv[-3]) / (2.0 * dt)
    ob = xdot - xv @ params.A.T - uv @ params.B.T
    return VectorPath(grid, ob)


def residual_path(Ob: VectorPath, z_i: VectorPath, g_i: VectorPath,
                  bundle: RiccatiBundle) -> VectorPath:
    """Ob1(t) = Ob(t) minus the mean-field drift C z_i + F ubar_i the agent
    predicts, ubar_i its control of z_i under g_i, with the bundle's
    parameters and P1, on the grid the three paths and the bundle share
    (GridMismatchError otherwise)."""
    grid = require_same_grid(Ob, z_i, g_i, bundle)
    params, z = bundle.params, z_i.values
    pred = mf_drift(params, z, control(params, bundle.P1.values, z, g_i.values))
    return VectorPath(grid, Ob.values - pred)


def _sample_nodes(grid, t0):
    """The DEFAULT_SAMPLES equispaced node indices in (0, t0]."""
    k0 = grid.index_of(t0)
    m = DEFAULT_SAMPLES
    if k0 < m:
        raise ValueError(f"t0={t0} leaves fewer than {m} nodes to sample")
    return np.linspace(k0 / m, k0, m).round().astype(int)


@dataclass
class CorrectionProblem:
    """Stacked linear system for recovering (Ebar, E_i) at time t0, with
    the agent's own predicted mean field z_i(t0) there."""

    bundle: RiccatiBundle
    t0: float
    stacked_K: np.ndarray
    stacked_Ob1: np.ndarray
    z_i_t0: np.ndarray


def build_correction_problem(bundle: RiccatiBundle, Ob1: VectorPath, t0,
                             z_i_t0) -> CorrectionProblem:
    """The stacked system of Ob1 at DEFAULT_SAMPLES equispaced nodes in
    (0, t0], on the grid the bundle and Ob1 share (GridMismatchError
    otherwise), with z_i_t0, the agent's own predicted mean field at t0,
    from which recover_errors reconstructs z_A(t0)."""
    ks = _sample_nodes(require_same_grid(bundle, Ob1), t0)
    K = np.concatenate([bundle.K1.values[ks], bundle.K2.values[ks]], axis=2)
    return CorrectionProblem(bundle=bundle, t0=float(t0), stacked_K=K.reshape(-1, K.shape[2]),
                             stacked_Ob1=Ob1.values[ks].ravel(),
                             z_i_t0=np.asarray(z_i_t0, dtype=float))


def identifiability(problem: CorrectionProblem):
    """Numerical rank of the stacked coefficient matrix (0 for a zero
    matrix), identifiable at full column rank 2n."""
    K = problem.stacked_K
    sv = np.linalg.svd(K, compute_uv=False)
    rank = int(np.sum(sv > SV_TOL * sv[0]))
    return {"rank": rank, "identifiable": rank == K.shape[1]}


@dataclass
class CorrectionResult:
    E_bar: np.ndarray
    E_i: np.ndarray
    z_A_t0: np.ndarray
    rank: int
    residual: float


def recover_errors(problem: CorrectionProblem) -> CorrectionResult:
    """Least-squares recovery of (Ebar, E_i), plus the true mean field at t0.

    z_A(t0) = z_i(t0) + Mz(t0) Ebar - Phi1(t0) E_i.
    """
    ident = identifiability(problem)
    K, b = problem.stacked_K, problem.stacked_Ob1
    if not ident["identifiable"]:
        raise IdentifiabilityError(f"stacked system has rank {ident['rank']} < {K.shape[1]}; "
                                   "errors are not recoverable from these samples")
    sol, *_ = np.linalg.lstsq(K, b, rcond=None)
    E_bar, E_i = np.split(sol, 2)
    residual = float(np.linalg.norm(K @ sol - b))
    bundle, t0 = problem.bundle, problem.t0
    return CorrectionResult(
        E_bar=E_bar, E_i=E_i,
        z_A_t0=problem.z_i_t0 + bundle.Mz.at(t0) @ E_bar - bundle.Phi1.at(t0) @ E_i,
        rank=ident["rank"], residual=residual,
    )


def modified_game(bundle: RiccatiBundle, z_A_t0, t0):
    """Restart the equilibrium from the reconstructed mean field at t0.

    Returns the corrected mean field z_new, average control, the tracking
    offset g_new, and the equilibrium law on [t0, T].
    """
    mf = equilibrium_mf(bundle, z_A_t0, bundle.grid.index_of(t0))
    law = equilibrium_law(bundle, mf)
    return {"z_new": mf.z, "ubar_new": mf.ubar, "g_new": law.g, "law": law}


def corrected_mf_deviation(bundle: RiccatiBundle, t0, E_bar) -> VectorPath:
    """Post-correction mean-field deviation on [t0, T].

    After every agent corrects at t0, the only remaining discrepancy is the
    initial offset z_A(t0) - z_c(t0) = Mz(t0) Ebar, which then propagates
    through the correct-information equilibrium dynamics:
    dz_new(t) = Phi1(t) Phi1(t0)^{-1} Mz(t0) Ebar.
    """
    k0, seed = _restart_map(bundle, t0)
    w = seed @ np.asarray(E_bar, dtype=float)
    return VectorPath(bundle.grid.subgrid(k0), np.einsum("kij,j->ki", bundle.Phi1.values[k0:], w))


def modified_offset_map(bundle: RiccatiBundle, t0) -> MatrixPath:
    """Map Ebar -> deviation of the post-correction offset g_new on [t0, T]:
    Mg(t) Phi1(t0)^{-1} Mz(t0).

    The restarted equilibrium's offset is (P0 - P1) z_new + G, so its
    deviation is (P0 - P1) times the mean-field deviation
    Phi1(t) Phi1(t0)^{-1} Mz(t0) Ebar (corrected_mf_deviation), and
    (P0 - P1) Phi1 is Mg (RiccatiBundle.Mg).
    """
    k0, seed = _restart_map(bundle, t0)
    return MatrixPath(bundle.grid.subgrid(k0), bundle.Mg.values[k0:] @ seed)


def _restart_map(bundle: RiccatiBundle, t0):
    """(k0, Phi1(t0)^-1 Mz(t0)) at the node k0 of t0: the map from Ebar to
    the predicted-equilibrium coordinates of the offset z_A(t0) - z_c(t0)
    the corrected game restarts from."""
    k0 = bundle.grid.index_of(t0)
    return k0, np.linalg.solve(bundle.Phi1[k0], bundle.Mz[k0])
