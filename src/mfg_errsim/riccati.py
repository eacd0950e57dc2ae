"""Riccati and backward offset equations of the equilibrium system.

Five coupled objects are solved backward from the horizon:

* P1  -- symmetric Riccati of the individual control problem,
* P0  -- non-symmetric Riccati of the coupled mean-field system,
* P2  -- Riccati of the average-prediction system (P2 = P0 - P1),
* G   -- offset paired with P0 (p = P0 z + G),
* G1  -- offset paired with (P1, P2) (G1 = G),

plus the tracking offset g driven by given mean-field paths.

Sign conventions are derived from first principles by substituting the
affine representations into the coupled forward-backward system; the
identities P2 = P0 - P1 and G1 = G are the consistency arbiters.

The closed-loop generators, the feedback control and the forward
mean-field solve that every downstream module runs are defined here once;
the bundle caches the two forward transitions (Phi1, PhiZ) that the
deviation maps and the realtime kernels share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FiniteEscapeError, IntegrationBlowupError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import fundamental_solution, half_nodes, rk4_affine, rk4_nonlinear, rk4_steps
from .params import SystemParams


# ---------------------------------------------------------------------------
# closed-loop generators and the feedback control, on node arrays


def mf_generator(params: SystemParams, P) -> np.ndarray:
    """Forward mean-field generator (A + C) - (B+F) R^-1 B' P at every node."""
    return (params.A + params.C)[None, :, :] - np.einsum("ij,kjl->kil", params.BFRB, P)


def agent_generator(params: SystemParams, P1) -> np.ndarray:
    """Single-agent closed-loop generator A - B R^-1 B' P1 at every node."""
    return params.A[None, :, :] - np.einsum("ij,kjl->kil", params.BRB, P1)


def offset_generator(params: SystemParams, P, M) -> np.ndarray:
    """Backward offset generator -(A' - P M) at every node, M = BRB or BFRB."""
    return -(params.A.T[None, :, :] - np.einsum("kij,jl->kil", P, M))


def control(params: SystemParams, P, x, g=None) -> np.ndarray:
    """Feedback control u = -R^-1 B' (P x + g).

    Either P is a node array (K+1, n, n) with paths x, g of shape (K+1, n),
    or P is the matrix of one node with states x of shape (N, n) or (n,).
    g = None drops the offset.
    """
    if P.ndim == 3:
        Px = np.einsum("kij,kj->ki", P, x)
        return -np.einsum("ij,kj->ki", params.RinvBt, Px if g is None else Px + g)
    Px = x @ P.T
    return -(Px if g is None else Px + g) @ params.RinvBt.T


def mean_field_path(params: SystemParams, P, G, z0, grid: TimeGrid) -> np.ndarray:
    """Forward mean-field solve dz = [mf_generator(P) z - (B+F) R^-1 B' G] dt
    from z(t_start) = z0, on node arrays P, G of the grid."""
    f = -np.einsum("ij,kj->ki", params.BFRB, G)
    return rk4_affine(mf_generator(params, P), f, np.asarray(z0, dtype=float),
                      grid, forward=True)


# ---------------------------------------------------------------------------
# Riccati and offset solves


def _escape_guard(fn, what):
    try:
        return fn()
    except IntegrationBlowupError as e:
        raise FiniteEscapeError(
            f"{what} escaped to infinity near t={e.time:.6g}", node=e.node, time=e.time
        ) from e


def _solve_riccati(params: SystemParams, grid: TimeGrid, which, what):
    """P1 and/or P0 (which: indices into [P1, P0]) from one backward RK4 loop
    on a state stacked over `which`.

    Both solve -dP = [P X + A'P + Q - P M P] dt backward from P(T):
    P1 with X = A, Q = Q_I + Q, M = B R^-1 B', P(T) = Qbar_I + Qbar;
    P0 with X = A + C, Q = Q_I + Q - Q*Gamma, M = (B+F) R^-1 B',
    P(T) = Qbar_I + Qbar - Qbar*Gammabar.
    """
    p = params
    X = np.stack([p.A, p.A + p.C])[which]
    Q = np.stack([p.Q_I + p.Q, -p.Qcal])[which]
    M = np.stack([p.BRB, p.BFRB])[which]
    PT = np.stack([p.Qbar_I + p.Qbar, p.Qbar_I + p.Qbar - p.Qbar @ p.Gammabar])[which]
    At = p.A.T

    def rhs(t, P):
        return -(P @ X + At @ P + Q - P @ M @ P)

    values = _escape_guard(lambda: rk4_nonlinear(rhs, PT, grid, forward=False), what)
    return [MatrixPath(grid, np.ascontiguousarray(values[:, j])) for j in range(len(which))]


def solve_P1(params: SystemParams, grid: TimeGrid) -> MatrixPath:
    """Symmetric Riccati: -dP1 = [P1 A + A'P1 + (Q_I+Q) - P1 B R^-1 B' P1] dt,
    P1(T) = Qbar_I + Qbar."""
    return _solve_riccati(params, grid, [0], "P1")[0]


def solve_P0(params: SystemParams, grid: TimeGrid) -> MatrixPath:
    """Non-symmetric Riccati of the coupled system:
    -dP0 = [P0(A+C) + A'P0 + (Q_I+Q-Q*Gamma) - P0 (B+F) R^-1 B' P0] dt,
    P0(T) = Qbar_I + Qbar - Qbar*Gammabar."""
    return _solve_riccati(params, grid, [1], "P0")[0]


def solve_P2(params: SystemParams, P1: MatrixPath, grid: TimeGrid) -> MatrixPath:
    """Riccati of the average-prediction system, P2(T) = -Qbar*Gammabar:
    -dP2 = [P2 H1 + H2 P2 + S - P2 (B+F) R^-1 B' P2] dt with
    H1 = A+C - (B+F) R^-1 B' P1, H2 = A' - P1 (B+F) R^-1 B' and S the
    coupling weight, all taken at nodes and half-steps of P1."""
    require_same_grid(P1)
    BFRB = params.BFRB
    P1h = half_nodes(P1.values)
    H1 = (params.A + params.C) - BFRB @ P1h
    H2 = params.A.T - P1h @ BFRB
    Sh = half_nodes(coupling_weight(params, P1))

    def rhs(i, P):
        return -(P @ H1[i] + H2[i] @ P + Sh[i] - P @ BFRB @ P)

    PT = -params.Qbar @ params.Gammabar
    values = _escape_guard(lambda: rk4_steps(rhs, PT, grid, forward=False), "P2")
    return MatrixPath(grid, values)


def coupling_weight(params: SystemParams, P1: MatrixPath) -> np.ndarray:
    """S(t) = P1 C - P1 F R^-1 B' P1 - Q*Gamma at every node."""
    P1v = P1.values
    return (
        np.einsum("kij,jl->kil", P1v, params.C)
        - np.einsum("kij,jl,klm->kim", P1v, params.FRB, P1v)
        - (params.Q @ params.Gamma)
    )


def solve_G(params: SystemParams, P0: MatrixPath, grid: TimeGrid) -> VectorPath:
    """Offset of the coupled system: dG = [-(A' - P0 (B+F) R^-1 B') G + nu] dt,
    G(T) = -Qbar_I sbar - Qbar etabar."""
    H = offset_generator(params, P0.values, params.BFRB)
    f = np.broadcast_to(params.nu, (grid.steps + 1, params.n))
    GT = -params.Qbar_I @ params.sbar - params.Qbar @ params.etabar
    values = _escape_guard(lambda: rk4_affine(H, f, GT, grid, forward=False), "G")
    return VectorPath(grid, values)


def solve_G1(params: SystemParams, P1: MatrixPath, P2: MatrixPath, grid: TimeGrid) -> VectorPath:
    """Offset paired with (P1, P2):
    dG1 = [-(A' - (P1+P2)(B+F) R^-1 B') G1 + nu] dt, same terminal as G."""
    H = offset_generator(params, P1.values + P2.values, params.BFRB)
    f = np.broadcast_to(params.nu, (grid.steps + 1, params.n))
    GT = -params.Qbar_I @ params.sbar - params.Qbar @ params.etabar
    values = _escape_guard(lambda: rk4_affine(H, f, GT, grid, forward=False), "G1")
    return VectorPath(grid, values)

def solve_tracking_offset(
    params: SystemParams,
    P1: MatrixPath,
    z_path: VectorPath,
    ubar_path: VectorPath,
    grid: TimeGrid,
    terminal_z: np.ndarray | None = None,
) -> VectorPath:
    """Backward tracking offset g driven by mean-field paths (z, ubar):

    dg = -[(A' - P1 B R^-1 B') g + (P1 C - Q*Gamma) z + P1 F ubar - Q_I s - Q eta] dt,
    g(T) = -Qbar_I sbar - Qbar (Gammabar z(T) + etabar).
    """
    require_same_grid(P1, z_path, ubar_path)
    P1v = P1.values
    H = offset_generator(params, P1v, params.BRB)
    drive = (
        np.einsum("kij,jl,kl->ki", P1v, params.C, z_path.values)
        - np.einsum("ij,kj->ki", params.Q @ params.Gamma, z_path.values)
        + np.einsum("kij,jl,kl->ki", P1v, params.F, ubar_path.values)
        - params.nu
    )
    f = -drive
    zT = z_path.terminal if terminal_z is None else np.asarray(terminal_z, dtype=float)
    gT = -params.Qbar_I @ params.sbar - params.Qbar @ (params.Gammabar @ zT + params.etabar)
    values = _escape_guard(lambda: rk4_affine(H, f, gT, grid, forward=False), "g")
    return VectorPath(grid, values)


@dataclass
class RiccatiBundle:
    """All Riccati/offset solutions on one grid, plus the generating params."""

    params: SystemParams
    grid: TimeGrid
    P0: MatrixPath
    P1: MatrixPath
    P2: MatrixPath
    G: VectorPath
    G1: VectorPath

    @classmethod
    def solve(cls, params: SystemParams, grid: TimeGrid) -> "RiccatiBundle":
        """Solve every path on the grid.  P1 and P0 share one backward RK4
        loop on a stacked (2, n, n) state; the linear G and G1 solves are
        scans of step propagators (see ode.rk4_affine)."""
        P1, P0 = _solve_riccati(params, grid, [0, 1], "P1 or P0")
        P2 = solve_P2(params, P1, grid)
        G = solve_G(params, P0, grid)
        G1 = solve_G1(params, P1, P2, grid)
        return cls(params=params, grid=grid, P0=P0, P1=P1, P2=P2, G=G, G1=G1)

    @cached_property
    def Phi1(self) -> MatrixPath:
        """Predicted-equilibrium transition: generator mf_generator(P0), I at t_start."""
        return self._mf_transition(self.P0)

    @cached_property
    def PhiZ(self) -> MatrixPath:
        """Actual-mean-field transition: generator mf_generator(P1), I at t_start."""
        return self._mf_transition(self.P1)

    def _mf_transition(self, P: MatrixPath) -> MatrixPath:
        H = MatrixPath(self.grid, mf_generator(self.params, P.values))
        return fundamental_solution(H, self.grid.t_start)
