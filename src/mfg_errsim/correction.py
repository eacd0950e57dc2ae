"""One-time recovery of information errors from an agent's own trajectory.

An agent observes its own state and control, so the drift residual

    Ob(t) = x_dot - A x - B u = C z_A(t) + F ubar_A(t)

reveals the mean field it actually lives in.  Subtracting the agent's own
prediction leaves an affine function of the unknown errors,

    Ob1(t) = K1(t) Ebar + K2(t) E_i,

with K1 = (C - F R^-1 B' P1) Mz - F R^-1 B' Mg and
K2 = -(C - F R^-1 B' P1) Phi1 + F R^-1 B' Mg.  Sampling Ob1 at m times and
stacking gives a linear system; if its rank is 2n the errors are uniquely
recoverable, the true mean field at the correction time t0 can be
reconstructed, and the game restarted from it.  Paths combined here must
share a grid (GridMismatchError otherwise), and the restarted game reads
its parameters from the Riccati bundle it restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FeedbackLaw, equilibrium_mf
from .deviations import DeviationMaps
from .errors import IdentifiabilityError
from .grid import MatrixPath, VectorPath, require_same_grid
from .params import SystemParams
from .riccati import RiccatiBundle, solve_tracking_offset

# relative singular-value cutoff of the identifiability rank, and the
# number of sample times build_correction_problem takes when given none
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
                  params: SystemParams, P1: MatrixPath) -> VectorPath:
    """Ob1(t) = Ob(t) - (C - F R^-1 B' P1) z_i(t) + F R^-1 B' g_i(t), on the
    grid the four paths share (GridMismatchError otherwise)."""
    grid = require_same_grid(Ob, z_i, g_i, P1)
    FRB = params.FRB
    pred = (
        z_i.values @ params.C.T
        - np.einsum("kij,kj->ki", FRB @ P1.values, z_i.values)
        - g_i.values @ FRB.T
    )
    return VectorPath(grid, Ob.values - pred)


def k_matrices(maps: DeviationMaps) -> tuple[MatrixPath, MatrixPath]:
    """The coefficient paths of Ob1 = K1 Ebar + K2 E_i."""
    FRB = maps.params.FRB
    P1v = maps.bundle.P1.values
    CFP = maps.params.C - FRB @ P1v
    FMg = FRB @ maps.Mg.values
    K1 = CFP @ maps.Mz.values - FMg
    K2 = FMg - CFP @ maps.Phi1.values
    return MatrixPath(maps.grid, K1), MatrixPath(maps.grid, K2)


def default_sample_times(grid, t0):
    """DEFAULT_SAMPLES equispaced grid nodes in (0, t0]."""
    k0 = grid.index_of(t0)
    m = DEFAULT_SAMPLES
    if k0 < m:
        raise ValueError(f"t0={t0} leaves fewer than {m} nodes to sample")
    ks = np.linspace(k0 / m, k0, m).round().astype(int)
    return [float(grid.times[k]) for k in ks]


@dataclass
class CorrectionProblem:
    """Stacked linear system for recovering (Ebar, E_i) at time t0."""

    maps: DeviationMaps
    t0: float
    sample_times: list
    K1: MatrixPath
    K2: MatrixPath
    stacked_K: np.ndarray
    stacked_Ob1: np.ndarray
    z_i_t0: np.ndarray | None = None

    @property
    def n(self):
        return self.maps.params.n


def build_correction_problem(maps: DeviationMaps, Ob1: VectorPath, t0,
                             sample_times=None, z_i_t0=None) -> CorrectionProblem:
    """The stacked system of Ob1 at the sample times, on the grid maps and
    Ob1 share (GridMismatchError otherwise)."""
    grid = require_same_grid(maps, Ob1)
    if sample_times is None:
        sample_times = default_sample_times(grid, t0)
    sample_times = sorted(float(t) for t in sample_times)
    if not sample_times:
        raise ValueError("sample_times must be nonempty")
    if sample_times[0] < grid.t_start - 1e-9 or sample_times[-1] > t0 + 1e-9:
        raise ValueError(f"sample times must lie in [0, t0={t0}]")
    K1, K2 = k_matrices(maps)
    rows_K, rows_b = [], []
    for t in sample_times:
        rows_K.append(np.hstack([K1.at(t), K2.at(t)]))
        rows_b.append(Ob1.at(t))
    return CorrectionProblem(
        maps=maps, t0=float(t0), sample_times=sample_times,
        K1=K1, K2=K2,
        stacked_K=np.vstack(rows_K), stacked_Ob1=np.concatenate(rows_b),
        z_i_t0=None if z_i_t0 is None else np.asarray(z_i_t0, dtype=float),
    )


def identifiability(problem: CorrectionProblem):
    """Numerical rank of the stacked coefficient matrix."""
    sv = np.linalg.svd(problem.stacked_K, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(sv > SV_TOL * sv[0]))
    return {"rank": rank, "identifiable": rank == 2 * problem.n}


@dataclass
class CorrectionResult:
    E_bar: np.ndarray
    E_i: np.ndarray
    z_A_t0: np.ndarray | None
    rank: int
    residual: float


def recover_errors(problem: CorrectionProblem) -> CorrectionResult:
    """Least-squares recovery of (Ebar, E_i), plus the true mean field at t0.

    z_A(t0) = z_i(t0) + Mz(t0) Ebar - Phi1(t0) E_i  (requires z_i_t0).
    """
    ident = identifiability(problem)
    if not ident["identifiable"]:
        raise IdentifiabilityError(
            f"stacked system has rank {ident['rank']} < {2 * problem.n}; "
            "errors are not recoverable from these samples"
        )
    n = problem.n
    sol, *_ = np.linalg.lstsq(problem.stacked_K, problem.stacked_Ob1, rcond=None)
    E_bar, E_i = sol[:n], sol[n:]
    residual = float(np.linalg.norm(problem.stacked_K @ sol - problem.stacked_Ob1))
    z_A_t0 = None
    if problem.z_i_t0 is not None:
        maps = problem.maps
        t0 = problem.t0
        z_A_t0 = problem.z_i_t0 + maps.Mz.at(t0) @ E_bar - maps.Phi1.at(t0) @ E_i
    return CorrectionResult(
        E_bar=E_bar, E_i=E_i, z_A_t0=z_A_t0,
        rank=ident["rank"], residual=residual,
    )


def modified_game(bundle: RiccatiBundle, z_A_t0, t0):
    """Restart the equilibrium from the reconstructed mean field at t0.

    Returns the corrected mean field z_new, average control, the tracking
    offset g_new, and the feedback law valid on [t0, T].
    """
    k0 = bundle.grid.index_of(t0)
    mf = equilibrium_mf(bundle, z_A_t0, k0)
    g_new = solve_tracking_offset(bundle, mf.z, mf.ubar)
    law = FeedbackLaw(params=bundle.params, P1=bundle.P1.slice(k0), g=g_new)
    return {"z_new": mf.z, "ubar_new": mf.ubar, "g_new": g_new, "law": law}


def corrected_mf_deviation(maps: DeviationMaps, t0, E_bar) -> VectorPath:
    """Post-correction mean-field deviation on [t0, T].

    After every agent corrects at t0, the only remaining discrepancy is the
    initial offset z_A(t0) - z_c(t0) = Mz(t0) Ebar, which then propagates
    through the correct-information equilibrium dynamics:
    dz_new(t) = Phi1(t) Phi1(t0)^{-1} Mz(t0) Ebar.
    """
    grid = maps.grid
    k0 = grid.index_of(t0)
    E_bar = np.asarray(E_bar, dtype=float)
    seed_vec = maps.Mz[k0] @ E_bar
    w = np.linalg.solve(maps.Phi1[k0], seed_vec)
    vals = np.einsum("kij,j->ki", maps.Phi1.values[k0:], w)
    sub = grid.subgrid(k0)
    return VectorPath(sub, vals)


def modified_offset_map(maps: DeviationMaps, t0) -> MatrixPath:
    """Map Ebar -> deviation of the post-correction offset g_new on [t0, T]:
    Mg(t) Phi1(t0)^{-1} Mz(t0).

    The restarted equilibrium's offset is (P0 - P1) z_new + G, so its
    deviation is (P0 - P1) times the mean-field deviation
    Phi1(t) Phi1(t0)^{-1} Mz(t0) Ebar (corrected_mf_deviation), and
    (P0 - P1) Phi1 is Mg (deviations.build_maps).
    """
    k0 = maps.grid.index_of(t0)
    seed = np.linalg.solve(maps.Phi1[k0], maps.Mz[k0])
    return MatrixPath(maps.grid.subgrid(k0), maps.Mg.values[k0:] @ seed)
