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

No Riccati solve steps in Python.  Each is the linear Hamiltonian system
d/dt [X; Y] = Ham [X; Y] from [I; P(T)] with P = Y X^-1.  P1 and P0 have
constant Hamiltonians, so their nodes come from the powers of the exact
backward step map expm(-dt Ham) and carry no truncation error; P2's
Hamiltonian varies with P1, so it is one rk4_affine scan.  The nodes are
taken in blocks re-anchored at [I; P] so that X never grows past 1e8, and
a finite escape shows as a singular X.

The closed-loop generators, the feedback control and the forward
mean-field solve that every downstream module runs are defined here once.
RiccatiBundle solves P1, P0 and G with the bundle and the rest on first
read: P2 and G1, which only the "p2" prediction route and the identity
checks read (every other path uses P0 - P1 and G); the RK4 step maps
(ode.StepMaps) of the three generators that several solves share,
mf_generator(P0), mf_generator(P1) and the tracking offset's
offset_generator(P1, BRB), so each of those solves only scans its
forcing; and the two forward transitions Phi1 and PhiZ, the prefix
products of the first two (the deviation maps read Phi1, the realtime
kernels both).  Every path is read-only, so a bundle can be shared.  Past
P1 and P0, every solve takes its grid from the paths or the bundle it is
given, so no solve can pair a path with another grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FiniteEscapeError, GridMismatchError, IntegrationBlowupError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import _RCOND_MIN, StepMaps, expm, matrix_powers, rk4_affine
from .params import SystemParams


# ---------------------------------------------------------------------------
# closed-loop generators and the feedback control, on node arrays
#
# A node array of states is (K+1, n), or (K+1, n, m) with one column per
# run on a trailing axis; a (K+1, n) array next to column states is one
# column shared by all of them.


def _cols(a):
    """A (K+1, n) node array as one column, (K+1, n, 1); columns pass."""
    return a[..., None] if a.ndim == 2 else a


def mf_generator(params: SystemParams, P) -> np.ndarray:
    """Forward mean-field generator (A + C) - (B+F) R^-1 B' P at every node."""
    return (params.A + params.C) - params.BFRB @ P


def agent_generator(params: SystemParams, P1) -> np.ndarray:
    """Single-agent closed-loop generator A - B R^-1 B' P1 at every node."""
    return params.A - params.BRB @ P1


def offset_generator(params: SystemParams, P, M) -> np.ndarray:
    """Backward offset generator -(A' - P M) at every node, M = BRB or BFRB."""
    return -(params.A.T - P @ M)


def control(params: SystemParams, P, x, g=None) -> np.ndarray:
    """Feedback control u = -R^-1 B' (P x + g).

    Either P is a node array (K+1, n, n) with node arrays x, g of states
    (see above), or P is the matrix of one node with states x of shape
    (N, n) or (n,).  g = None drops the offset.
    """
    if P.ndim == 3:
        Px = P @ _cols(x)
        if g is not None:
            Px += _cols(g)
        u = -(params.RinvBt @ Px)
        return u if x.ndim == 3 else u[..., 0]
    # contiguous right operands: faster than transposed views, same bits
    Px = x @ np.ascontiguousarray(P.T)
    if g is not None:
        Px += g
    return np.negative(Px, out=Px) @ params.RinvBtT


def mean_field_path(params: SystemParams, steps: StepMaps, G, z0, k0=0) -> np.ndarray:
    """Forward mean-field solve dz = [mf_generator(P) z - (B+F) R^-1 B' G] dt
    from z(t_k0) = z0, with steps the forward step maps of mf_generator(P)
    (a RiccatiBundle keeps those of P0 and P1).  G is a node array of the
    nodes k0..K, (K-k0+1, n), shared by every run, or (K-k0+1, n, m); z0 is
    (n,) or (n, m), one column per run."""
    f = -(params.BFRB @ G) if G.ndim == 3 else -(G @ params.BFRB.T)
    return steps.solve(f, np.asarray(z0, dtype=float), k0)


# ---------------------------------------------------------------------------
# Riccati and offset solves


# RK4's stability region meets the negative real axis at about -2.785
_RK4_REAL_BOUND = 2.785


def _step_size_error(e, H, grid, what):
    """The error of a backward linear solve on grid under the generator H
    that blew up with e.  A linear ODE has no finite escape, so a non-finite
    node is a step-size instability: the IntegrationBlowupError names the
    grid's steps and dt rho(H)."""
    rho = np.max(np.abs(np.linalg.eigvals(H)))
    return IntegrationBlowupError(
        f"{what} blew up near t={e.time:.6g} with grid_steps={grid.steps}: "
        f"dt*rho(H) = {grid.dt * rho:.4g} against RK4's real stability bound "
        f"of about {_RK4_REAL_BOUND}", node=e.node, time=e.time)


# Riccati solves through the linear Hamiltonian system: P = Y X^-1 with
# d/dt [X; Y] = Ham [X; Y] backward from [I; P(T)] (Radon's lemma;
# Davison & Maki, IEEE TAC 18(1), 1973).  X grows like the dominant mode of
# Ham, so the nodes are taken in blocks whose step-map product stays below
# _GROWTH_MAX, restarting from [I; P] at the end of each block (Kenney &
# Leipnik, IEEE TAC 30(10), 1985).
_GROWTH_MAX = 1e8


def _block_steps(log_norm, K):
    """Steps per block: the most steps L with L log_norm <= log(_GROWTH_MAX),
    log_norm bounding the log of the 2-norm of one step's map (a log, so a
    bound past the float range stays finite)."""
    if log_norm <= 0.0:
        return K
    return int(min(K, max(1.0, np.log(_GROWTH_MAX) // log_norm)))


def _riccati_ratio(XY, nodes, grid, what):
    """P = Y X^-1 of [X; Y] (j, 2n, n) at `nodes`, listed in integration
    order from an anchor where X = I.

    A finite escape is a singular X.  FiniteEscapeError is raised at the
    first node where det X <= 0, where the reciprocal 1-norm condition
    number of X falls below _RCOND_MIN, or where the step factor
    F = X_j X_(j-1)^-1 has a real eigenvalue <= 0.  The last is what an
    eigenvalue of X passing through zero inside the step leaves behind
    when det X keeps its sign (an even number of them, as for X = x I).
    A closed loop that turns by more than a quarter revolution in one step
    gives F complex eigenvalue pairs in the left half-plane, which are not
    an escape.
    """
    n = XY.shape[2]
    X, Y = XY[:, :n], XY[:, n:]
    bad = ~(np.linalg.det(X) > 0.0)
    m = int(np.argmax(bad)) if bad.any() else len(X)
    Xinv = np.linalg.inv(X[:m])
    bad = 1.0 / (_norm1(X[:m]) * _norm1(Xinv)) < _RCOND_MIN
    F = X[:m].copy()
    F[1:] = X[1:m] @ Xinv[:-1]
    # ||F - I||_1 < 1 keeps every eigenvalue of F in the right half-plane
    far = np.flatnonzero(_norm1(F - np.eye(n)) >= 1.0)
    ev = np.linalg.eigvals(F[far])
    bad[far] |= ((ev.imag == 0.0) & (ev.real <= 0.0)).any(axis=1)
    if bad.any():
        m = int(np.argmax(bad))
    if m < len(X):
        k = int(nodes[m])
        t = grid.times[k]
        raise FiniteEscapeError(f"{what} escaped to infinity near t={t:.6g}", node=k, time=t)
    return Y @ Xinv


def _norm1(M):
    return np.linalg.norm(M, 1, axis=(1, 2))


def _riccati_blocks(span, PT, L, grid, what):
    """Node values of P = Y X^-1 backward from P(T) = PT, in blocks of at
    most L steps, each started from [I; P] at its first node.
    span(k, j, V) gives [X; Y] at nodes k-1, ..., k-j from [X; Y](k) = V."""
    n = PT.shape[0]
    out = np.empty((grid.steps + 1, n, n))
    out[-1] = PT
    k = grid.steps
    while k > 0:
        j = min(L, k)
        nodes = np.arange(k - 1, k - j - 1, -1)
        out[nodes] = _riccati_ratio(span(k, j, np.vstack([np.eye(n), out[k]])),
                                    nodes, grid, what)
        k -= j
    return out


def _hamiltonian_riccati(Ham, PT, grid, what):
    """Node values of P = Y X^-1 for a constant Hamiltonian Ham (2n, 2n).

    The exact backward step map Psi = expm(-dt Ham) has no truncation error:
    a block from node k is [X; Y](k - j) = Psi^j [X; Y](k), one batched
    matmul with the powers from ode.matrix_powers.
    """
    try:
        Psi = expm(-grid.dt * Ham)
    except IntegrationBlowupError as e:
        raise IntegrationBlowupError(f"{what}: step map over dt = {grid.dt:.6g}: {e}") from None
    powers = matrix_powers(Psi, _block_steps(np.log(np.linalg.norm(Psi, 2)), grid.steps))
    return _riccati_blocks(lambda k, j, V: powers[1:j + 1] @ V, PT, len(powers) - 1,
                           grid, what)


def _solve_riccati(params: SystemParams, grid: TimeGrid, what):
    """P1 or P0 (what = "P1" or "P0") from the exact step map of its
    constant Hamiltonian.

    Both solve -dP = [P X + A'P + Q - P M P] dt backward from P(T), with
    Hamiltonian [[X, -M], [-Q, -A']]:
    P1 with X = A, Q = Q_I + Q, M = B R^-1 B', P(T) = Qbar_I + Qbar;
    P0 with X = A + C, Q = Q_I + Q - Q*Gamma, M = (B+F) R^-1 B',
    P(T) = Qbar_I + Qbar - Qbar*Gammabar.
    """
    p = params
    if what == "P1":
        X, Q, M, PT = p.A, p.Q_I + p.Q, p.BRB, p.Qbar_I + p.Qbar
    else:
        X, Q, M, PT = p.A + p.C, -p.Qcal, p.BFRB, p.Qbar_I + p.Qbar - p.Qbar @ p.Gammabar
    Ham = np.block([[X, -M], [-Q, -p.A.T]])
    return MatrixPath(grid, _hamiltonian_riccati(Ham, PT, grid, what))


def solve_P1(params: SystemParams, grid: TimeGrid) -> MatrixPath:
    """Symmetric Riccati: -dP1 = [P1 A + A'P1 + (Q_I+Q) - P1 B R^-1 B' P1] dt,
    P1(T) = Qbar_I + Qbar."""
    return _solve_riccati(params, grid, "P1")


def solve_P0(params: SystemParams, grid: TimeGrid) -> MatrixPath:
    """Non-symmetric Riccati of the coupled system:
    -dP0 = [P0(A+C) + A'P0 + (Q_I+Q-Q*Gamma) - P0 (B+F) R^-1 B' P0] dt,
    P0(T) = Qbar_I + Qbar - Qbar*Gammabar."""
    return _solve_riccati(params, grid, "P0")


def solve_P2(params: SystemParams, P1: MatrixPath) -> MatrixPath:
    """Riccati of the average-prediction system on P1's grid,
    P2(T) = -Qbar*Gammabar:
    -dP2 = [P2 H1 + H2 P2 + S - P2 (B+F) R^-1 B' P2] dt with
    H1 = A+C - (B+F) R^-1 B' P1, H2 = A' - P1 (B+F) R^-1 B' and S the
    coupling weight.

    The Hamiltonian [[H1, -(B+F) R^-1 B'], [-S, -H2]] varies with P1, so
    [X; Y] is an rk4_affine scan (half-step coefficients from half_nodes),
    in blocks re-anchored at [I; P2] as in the P1/P0 solve.
    """
    grid, BFRB = P1.grid, params.BFRB
    n, K = params.n, grid.steps
    P1v = P1.values
    Ham = np.empty((K + 1, 2 * n, 2 * n))
    Ham[:, :n, :n] = mf_generator(params, P1v)
    Ham[:, :n, n:] = -BFRB
    Ham[:, n:, :n] = -coupling_weight(params, P1)
    Ham[:, n:, n:] = offset_generator(params, P1v, BFRB)
    # exp(dt ||Ham||_F) bounds the 2-norm of one step's map
    L = _block_steps(grid.dt * np.linalg.norm(Ham, axis=(1, 2)).max(), K)

    def span(k, j, V):
        XY = rk4_affine(Ham[k - j:k + 1], None, V, grid.subgrid(k - j, k), forward=False)
        return XY[j - 1::-1]

    return MatrixPath(grid, _riccati_blocks(span, -params.Qbar @ params.Gammabar, L, grid, "P2"))


def coupling_weight(params: SystemParams, P1: MatrixPath) -> np.ndarray:
    """S(t) = P1 C - P1 F R^-1 B' P1 - Q*Gamma at every node."""
    P1v = P1.values
    return P1v @ params.C - (P1v @ params.FRB) @ P1v - params.Q @ params.Gamma


def solve_G(params: SystemParams, P0: MatrixPath) -> VectorPath:
    """Offset of the coupled system on P0's grid:
    dG = [-(A' - P0 (B+F) R^-1 B') G + nu] dt, G(T) = -Qbar_I sbar - Qbar etabar."""
    return _solve_offset(params, P0.values, P0.grid, "G")


def solve_G1(params: SystemParams, P1: MatrixPath, P2: MatrixPath) -> VectorPath:
    """Offset paired with (P1, P2), on their shared grid (GridMismatchError
    otherwise):
    dG1 = [-(A' - (P1+P2)(B+F) R^-1 B') G1 + nu] dt, same terminal as G."""
    grid = require_same_grid(P1, P2)
    return _solve_offset(params, P1.values + P2.values, grid, "G1")


def _solve_offset(params: SystemParams, P, grid: TimeGrid, what) -> VectorPath:
    """The offset solve of solve_G and solve_G1, on the node array P."""
    H = offset_generator(params, P, params.BFRB)
    f = np.broadcast_to(params.nu, (grid.steps + 1, params.n))
    GT = -params.Qbar_I @ params.sbar - params.Qbar @ params.etabar
    try:
        values = rk4_affine(H, f, GT, grid, forward=False)
    except IntegrationBlowupError as e:
        raise _step_size_error(e, H, grid, what) from e
    return VectorPath(grid, values)


def solve_tracking_offset(bundle: "RiccatiBundle", z_path, ubar_path):
    """Backward tracking offset g driven by mean-field paths (z, ubar), on
    the grid z and ubar share, which must be the bundle's or its tail
    [t_k0, T] (GridMismatchError otherwise):

    dg = -[(A' - P1 B R^-1 B') g + (P1 C - Q*Gamma) z + P1 F ubar - Q_I s - Q eta] dt,
    g(T) = -Qbar_I sbar - Qbar (Gammabar z(T) + etabar).

    z and ubar are VectorPaths, giving a VectorPath, or MatrixPaths with one
    column per run, giving a MatrixPath of the runs' offsets.  The solve
    scans the drive under the bundle's tracking_steps, which it stops at
    node k0, with the drive matrices P1 C - Q*Gamma and P1 F the bundle
    keeps beside them.
    """
    params = bundle.params
    grid = require_same_grid(z_path, ubar_path)
    k0 = bundle.start_node(grid)
    z, ub = _cols(z_path.values), _cols(ubar_path.values)
    PCQG, P1F = (a[k0:] for a in bundle.tracking_drive)
    f = params.nu[:, None] - PCQG @ z
    f -= P1F @ ub
    gT = (-params.Qbar_I @ params.sbar)[:, None] - params.Qbar @ (
        params.Gammabar @ z[-1] + params.etabar[:, None])
    steps = bundle.tracking_steps
    try:
        values = steps.solve(f, gT, k0)
    except IntegrationBlowupError as e:
        raise _step_size_error(e, steps.H, bundle.grid, "g") from e
    if z_path.values.ndim == 2:
        return VectorPath(grid, values[..., 0])
    return MatrixPath(grid, values)


@dataclass
class RiccatiBundle:
    """All Riccati/offset solutions on one grid, plus the generating params.

    P1, P0 and G are solved with the bundle; P2, G1, the step maps of the
    shared generators and the transitions Phi1, PhiZ are built on first
    read, so a caller pays only for what it reads, and once."""

    params: SystemParams
    grid: TimeGrid
    P0: MatrixPath
    P1: MatrixPath
    G: VectorPath

    @classmethod
    def solve(cls, params: SystemParams, grid: TimeGrid) -> "RiccatiBundle":
        """Solve P1, P0 and G on the grid.

        P1 and P0 are powers of the exact step maps of their constant
        Hamiltonians, giving P = Y X^-1 in blocks re-anchored at [I; P];
        each raises FiniteEscapeError, naming the path, where X turns
        singular.  The linear G solve is a scan of step propagators (see
        ode.rk4_affine); a non-finite node there is a step-size instability,
        an IntegrationBlowupError naming the grid's steps."""
        P1, P0 = solve_P1(params, grid), solve_P0(params, grid)
        return cls(params=params, grid=grid, P0=P0, P1=P1, G=solve_G(params, P0))

    @cached_property
    def P2(self) -> MatrixPath:
        """Riccati of the average-prediction system (solve_P2).  It equals
        P0 - P1 up to truncation, so it exists wherever P0 and P1 do and
        solving it on first read moves no escape."""
        return solve_P2(self.params, self.P1)

    @cached_property
    def G1(self) -> VectorPath:
        """Offset paired with (P1, P2) (solve_G1), equal to G up to truncation."""
        return solve_G1(self.params, self.P1, self.P2)

    @cached_property
    def mf0_steps(self) -> StepMaps:
        """Forward step maps of mf_generator(P0): Phi1 and the equilibrium
        mean fields (core.equilibrium_mf, limiting.solve_limiting_batch)."""
        return StepMaps(mf_generator(self.params, self.P0.values), self.grid)

    @cached_property
    def mf1_steps(self) -> StepMaps:
        """Forward step maps of mf_generator(P1): PhiZ, the deviation map Mz
        and the realized mean fields."""
        return StepMaps(mf_generator(self.params, self.P1.values), self.grid)

    @cached_property
    def tracking_steps(self) -> StepMaps:
        """Backward step maps of offset_generator(P1, BRB), the generator of
        the tracking offset (solve_tracking_offset) and of the realtime
        kernel V."""
        return StepMaps(offset_generator(self.params, self.P1.values, self.params.BRB),
                        self.grid, forward=False)

    @cached_property
    def tracking_drive(self) -> tuple:
        """(P1 C - Q*Gamma, P1 F) at every node, the matrices that drive the
        tracking offset with z and ubar."""
        p, P1v = self.params, self.P1.values
        drive = P1v @ p.C - p.Q @ p.Gamma, P1v @ p.F
        for a in drive:
            a.flags.writeable = False
        return drive

    @cached_property
    def Phi1(self) -> MatrixPath:
        """Predicted-equilibrium transition: generator mf_generator(P0), I at t_start."""
        return MatrixPath(self.grid, self.mf0_steps.transition)

    @cached_property
    def PhiZ(self) -> MatrixPath:
        """Actual-mean-field transition: generator mf_generator(P1), I at t_start."""
        return MatrixPath(self.grid, self.mf1_steps.transition)

    def start_node(self, grid: TimeGrid) -> int:
        """The node k0 at which grid, the bundle's grid or its tail
        [t_k0, T], starts; GridMismatchError for any other grid."""
        k0 = self.grid.steps - grid.steps
        if k0 < 0:
            raise GridMismatchError(f"grids differ: {self.grid} vs {grid}")
        require_same_grid(self.grid.subgrid(k0), grid)
        return k0
