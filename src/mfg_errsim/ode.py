"""Fixed-step integration of time-varying linear/matrix ODEs, and exact
step maps of constant ones.

The workhorse is the Runge-Kutta 4 step on a uniform grid, one RK4 step
(_rk4_step) behind every solver.  Stage values of time-varying
coefficients at half-steps come from linear interpolation of node values
(half_nodes), so every coefficient can live on the same grid as the
solution, and that average, off the midpoint value by O(h^2), makes every
RK4 solve second order in the step, not fourth (the riccati module's P1
and P0 are exact, from the exact step maps below).  Nonlinear problems step in a Python loop (rk4_steps).  Affine
problems do not.  One RK4 step of dv/dt = H v + f is affine in v and in f,
v_(k+1) = T_k v_k + c_k, and StepMaps takes the step once for all K steps,
on strided views of the stage coefficients, to get every step map T_k and
the weights that give c_k from f; it keeps them with the up-sweep levels of
a work-efficient odd-even prefix scan over the T_k (Ladner and Fischer
1980; Blelloch 1990).  A solve then forms its forcing columns c_k and
scans only them against those levels, fewer than 2K matvec rows in
2 ceil(log2 K) batched calls, and the transition (fundamental solution) is
the levels' prefix products.  The step maps depend on H and the grid only,
so a generator that several solves share keeps one StepMaps
(riccati.RiccatiBundle keeps three), and rk4_affine is the one-off solve
for the rest.  Backward problems are integrated in reversed time with a
negative step; returned paths are always forward-indexed.  _up_sweep and
_scan are the package's one prefix scan: the population module's Monte
Carlo chunks and blocks sweep their Euler step maps up and scan columns
against them too.

A constant linear ODE needs no RK4: its exact step map is the matrix
exponential (expm, degree-13 Pade scaling and squaring), and matrix_powers
gives all the map's powers up to a step count with log-depth batched
doubling.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import IntegrationBlowupError, SingularMatrixError
from .grid import MatrixPath

_RCOND_MIN = 1e-12


# Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005):
# the numerator coefficients b of the degree-13 approximant, and the largest
# 1-norm theta at which it meets double-precision backward error
_PADE = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA = 5.371920351148152e0


@np.errstate(over="ignore", invalid="ignore")
def expm(A):
    """Matrix exponential of one square matrix by Pade scaling and squaring.

    A is scaled by 2^-s into the degree-13 approximant's range, s = 0 for a
    1-norm up to theta (a zero matrix included), and the result squared s
    times.  IntegrationBlowupError is raised for a non-finite 1-norm, one
    past theta 2^511, and a non-finite result; an overflow on the way is
    not warned about, it shows as that result.
    """
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, 1)
    if not norm <= _THETA * 2.0**511:
        raise IntegrationBlowupError(f"matrix exponential of a matrix with 1-norm {norm:.6g}")
    s = 0 if norm <= _THETA else int(np.ceil(np.log2(norm / _THETA)))
    A = A / 2.0**s
    eye = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    if not np.isfinite(E).all():
        raise IntegrationBlowupError(f"matrix exponential overflows at 1-norm {norm:.6g}")
    return E


def matrix_powers(M, K):
    """The powers M^0 .. M^K of a square matrix, shape (K+1, n, n).

    Doubling: with M^0 .. M^(m-1) known, one batched matmul by M^m gives
    M^m .. M^(2m-1), so ceil(log2(K+1)) passes in all.  M^m is squared
    only while a later pass reads it, so no power past M^K is formed.
    """
    M = np.asarray(M, dtype=float)
    out = np.empty((K + 1,) + M.shape)
    out[0] = np.eye(M.shape[0])
    m, Mm = 1, M
    while m <= K:
        j = min(m, K + 1 - m)
        out[m:m + j] = out[:j] @ Mm
        m *= 2
        if m <= K:
            Mm = Mm @ Mm
    return out


def _check_finite(v, k, t):
    if not np.isfinite(v).all():
        raise IntegrationBlowupError(
            f"integration blew up at node {k} (t={t:.6g})", node=k, time=t
        )


def half_nodes(a):
    """Node values a[k] interleaved with half-step values, shape (2K+1, ...).

    Entry 2k is node k and entry 2k+1 the midpoint of the step from node k
    to k+1, taken as the average of the two nodes.  A step between nodes k
    and k+1 reads entries 2k, 2k+1 and 2k+2, in that order forward and in
    reverse backward.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
    out[0::2] = a
    out[1::2] = 0.5 * (a[:-1] + a[1:])
    return out


def _rk4_step(rhs, i, v, h, s):
    """One classical RK4 step of size h from half-node i, reading half-nodes
    i, i + s and i + 2s (rk4_affine's batch of all steps passes i = 0, s = 1
    and reads its three stage views)."""
    k1 = rhs(i, v)
    k2 = rhs(i + s, v + 0.5 * h * k1)
    k3 = rhs(i + s, v + 0.5 * h * k2)
    k4 = rhs(i + 2 * s, v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_steps(rhs, v0, grid, forward=True):
    """The classical RK4 step loop on a uniform grid.

    rhs(i, v) is the derivative at half-node i (see half_nodes).  v0 is the
    value at t_start (forward) or t_end (backward); backward problems step
    with negative dt.  Returns the forward-indexed array of node values and
    raises IntegrationBlowupError at the first non-finite node; overflow on
    the way there is that error, not a floating-point warning.
    """
    K = grid.steps
    times = grid.times
    h = grid.dt if forward else -grid.dt
    s = 1 if forward else -1
    v = np.array(v0, dtype=float)
    out = np.empty((K + 1,) + v.shape)
    out[0 if forward else K] = v
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K) if forward else range(K, 0, -1):
            v = _rk4_step(rhs, 2 * k, v, h, s)
            _check_finite(v, k + s, times[k + s])
            out[k + s] = v
    return out


def _up_sweep(T):
    """The levels of the odd-even scan over the matrices T (K, n, n): T,
    then the products T_(2i+1) T_(2i) of its pairs, and so on down to one
    matrix.  Fewer than K products in ceil(log2 K) batched calls."""
    levels = [T]
    while len(T) > 1:
        T = T[1::2] @ T[:len(T) - 1:2]
        levels.append(T)
    return levels


def _scan(levels, c):
    """C_k = sum over j <= k of T_k ... T_(j+1) c_j for the columns c
    (K, n, m), given the up-sweep levels of the T_j: the package's one
    prefix scan.  Odd-even (Ladner and Fischer 1980; Blelloch 1990): fold
    the pairs (2i, 2i+1) of columns with the level's maps, scan the pairs
    recursively for the odd entries, then step each even entry 2i >= 2 on
    from pair prefix i - 1.  K - 1 matvec rows per level of length K, fewer
    than 2K in all, in 2 ceil(log2 K) batched calls; an affine map's
    matrix part scans as columns too, T_0 first and zeros after it."""
    K = len(c)
    if K == 1:
        return c
    T = levels[0]
    pairs = T[1::2] @ c[:K - 1:2]
    pairs += c[1::2]
    pairs = _scan(levels[1:], pairs)
    out = np.empty_like(c)
    out[0] = c[0]
    out[1::2] = pairs
    even = np.matmul(T[2::2], pairs[:(K - 1) // 2], out=out[2::2])
    even += c[2::2]
    return out


class StepMaps:
    """The RK4 step maps of dv/dt = H(t) v + f(t) on a grid in one
    direction, for any forcing f and start value.

    Step j, in integration order, is v -> T_j v + c_j with
    c_j = W0_j f_j + W1_j f_(j+1/2) + (h/6) f_(j+1), f read at the step's
    first node, midpoint (the nodes' average, as half_nodes) and last node.
    T, W0 and W1 come from one _rk4_step on the state [I | 0 | 0] under
    the forcing [0 | I | 0] at the first stage and [0 | 0 | I] at the
    midpoint stages; they are kept with the up-sweep levels of the T_j, so
    a solve only scans its forcing columns, and the transition is the
    unforced solve from I.  Backward maps (forward False) step with
    negative dt from the grid's end; every returned path is forward-indexed.
    """

    def __init__(self, H, grid, forward=True):
        H = np.asarray(H, dtype=float)
        n, K = H.shape[1], grid.steps
        self.H, self.grid, self.forward = H, grid, forward
        self.h = grid.dt if forward else -grid.dt
        Hh = half_nodes(H)
        if forward:
            stages = (slice(0, 2 * K, 2), slice(1, 2 * K, 2), slice(2, None, 2))
        else:
            stages = (slice(2 * K, 0, -2), slice(2 * K - 1, None, -2),
                      slice(2 * K - 2, None, -2))
        Hs = [Hh[j] for j in stages]
        eye = np.eye(n)

        def rhs(i, v):
            dv = Hs[i] @ v
            if i < 2:
                dv[:, :, (i + 1) * n:(i + 2) * n] += eye
            return dv

        with np.errstate(over="ignore", invalid="ignore"):
            TW = _rk4_step(rhs, 0, np.broadcast_to(np.eye(n, 3 * n), (K, n, 3 * n)), self.h, 1)
            self.T, self.W0, self.W1 = (np.ascontiguousarray(TW[:, :, j:j + n])
                                        for j in range(0, 3 * n, n))
            self.levels = _up_sweep(self.T)
        # every solve shares these, so none may write them
        for a in self.levels + [self.W0, self.W1]:
            a.flags.writeable = False

    def solve(self, f, v0, k0=0):
        """Node values of the run over nodes k0..K of the grid, from v0 at
        its start: node k0 forward, node K backward.

        v0 is a vector (n,) or a matrix (n, m); f, on the run's nodes, has
        the state's shape at every node, is a vector path (K - k0 + 1, n)
        forcing every column of a matrix state alike, or is None.  Returns
        the forward-indexed array (K - k0 + 1,) + v0.shape and raises
        IntegrationBlowupError at the first non-finite node in integration
        order, named by its node of the grid.  The run's columns c_j come
        from two batched matmuls, T_j0 v0 is added to its first, and _scan
        does the rest against the levels' slices of the run's sub-tree: the
        steps from its first one rounded down to a multiple of the smallest
        power of two >= K - k0, so fewer than 2 (K - k0) columns, the ones
        before the run zero.  No step map is built, composed or inverted
        here.
        """
        K = self.grid.steps
        if not 0 <= k0 < K:
            raise ValueError(f"a run starts at a node in 0..{K - 1}, got {k0}")
        v0 = np.asarray(v0, dtype=float)
        V0 = v0[:, None] if v0.ndim == 1 else v0
        n, m = V0.shape
        L = K - k0
        first = k0 if self.forward else 0   # the run's first step, in step order
        lo = first - first % (1 << (L - 1).bit_length())
        levels = [lv[lo >> i:(first + L) >> i] for i, lv in enumerate(self.levels)]
        run = slice(first - lo, None)
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.zeros((first + L - lo, n, m))
            if f is not None:
                f = np.asarray(f, dtype=float).reshape(L + 1, n, -1)
                if not self.forward:
                    f = f[::-1]
                steps = slice(first, first + L)
                cf = self.W0[steps] @ f[:-1]
                cf += self.W1[steps] @ (0.5 * (f[:-1] + f[1:]))
                cf += (self.h / 6.0) * f[1:]
                c[run] = cf
            c[run.start] += self.T[first] @ V0
            C = _scan(levels, c)[run]
        # a non-finite column poisons every later prefix, so the first
        # non-finite node in step order is the one the step loop would stop at
        bad = ~np.isfinite(C).all(axis=(1, 2))
        if bad.any():
            j = int(np.argmax(bad))
            k = k0 + j + 1 if self.forward else K - 1 - j
            _check_finite(C[j], k, self.grid.times[k])
        out = np.empty((L + 1, n, m))
        if self.forward:
            out[0], out[1:] = V0, C
        else:
            out[-1], out[:-1] = V0, C[::-1]
        return out.reshape((L + 1,) + v0.shape)

    @cached_property
    def transition(self):
        """The fundamental solution, forward-indexed (K+1, n, n): the
        unforced solve from I at the start node, so the prefix products
        T_j ... T_0 of the steps."""
        out = self.solve(None, np.eye(self.T.shape[1]))
        out.flags.writeable = False
        return out


def rk4_affine(H, f, v0, grid, forward=True):
    """RK4 for dv/dt = H(t) v + f(t) with H, f given as node arrays (f may
    be None): StepMaps(H, grid, forward).solve(f, v0).

    v0 is the value at t_start (forward) or t_end (backward), a vector (n,)
    or a matrix (n, m).  f has the state's shape at every node, or is a
    vector path (K+1, n) forcing every column of a matrix state alike.
    Returns the full forward-indexed array of node values and raises
    IntegrationBlowupError at the first non-finite node.  A generator that
    several solves share keeps its StepMaps instead (see riccati.RiccatiBundle).
    """
    return StepMaps(H, grid, forward).solve(f, v0)


def cumulative_trapezoid(a, dt):
    """Trapezoid integrals from node 0 to every node of the node array a
    (K+1, ...) on a grid of step dt, 0 at node 0."""
    seg = 0.5 * dt * (a[:-1] + a[1:])
    return np.concatenate([np.zeros((1,) + seg.shape[1:]), np.cumsum(seg, axis=0)])


def rk4_nonlinear(rhs, v0, grid, forward=True):
    """RK4 for dv/dt = rhs(t, v) with a general (possibly nonlinear) rhs."""
    th = half_nodes(grid.times)
    return rk4_steps(lambda i, v: rhs(th[i], v), v0, grid, forward)


def fundamental_solution(H: MatrixPath):
    """Fundamental solution Phi with dPhi/dt = H(t) Phi and Phi = I at the
    first node of H's grid.

    Phi(t) Phi(s)^{-1} is then the state-transition matrix from s to t; the
    solution anchored at node k is that of H.slice(k).
    """
    n, m = H.shape
    if n != m:
        raise ValueError(f"H must be square, got {n}x{m}")
    return MatrixPath(H.grid, rk4_affine(H.values, None, np.eye(n), H.grid, forward=True))


def invert_path(Phi):
    """Nodewise inverses of a square MatrixPath, with conditioning guard."""
    vals = Phi.values
    rcond = 1.0 / np.linalg.cond(vals)
    if np.any(rcond < _RCOND_MIN):
        k = int(np.argmin(rcond))
        raise SingularMatrixError(
            f"path matrix at node {k} is numerically singular (rcond={rcond[k]:.3g})"
        )
    return np.linalg.inv(vals)
