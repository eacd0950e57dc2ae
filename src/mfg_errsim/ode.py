"""Fixed-step integration of time-varying linear/matrix ODEs, and exact
step maps of constant ones.

The workhorse is classical 4th-order Runge-Kutta on a uniform grid, with
one RK4 step (_rk4_step) behind every solver.  Stage values of
time-varying coefficients at half-steps come from linear interpolation of
node values (half_nodes), so every coefficient can live on the same grid as
the solution.  Nonlinear problems step in a Python loop (rk4_steps).  Affine
problems do not: rk4_affine takes the step once, on strided views of the
stage coefficients of all steps, to build each step's propagator, and
composes the propagators with a work-efficient (odd-even) prefix scan of
about 2K compositions in 2 ceil(log2 K) batched calls.  Backward problems
are integrated in reversed time with a negative step; returned paths are
always forward-indexed.

A constant linear ODE needs no RK4: its exact step map is the matrix
exponential (expm, Pade scaling and squaring), and matrix_powers gives all
the map's powers up to a step count with log-depth batched doubling.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationBlowupError, SingularMatrixError
from .grid import MatrixPath, TimeGrid

_RCOND_MIN = 1e-12


# Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005):
# the numerator coefficients b of the degree-m approximants, and the largest
# 1-norm theta_m at which degree m meets double-precision backward error
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}


@np.errstate(over="ignore", invalid="ignore")
def expm(A):
    """Matrix exponential of one square matrix by Pade scaling and squaring.

    The lowest Pade degree m in (3, 5, 7, 9) whose theta_m bounds the 1-norm
    is used unscaled; otherwise A is scaled by 2^-s into degree 13's range
    and the result squared s times.  IntegrationBlowupError is raised for a
    non-finite 1-norm, one too large to scale (4^s must stay finite), and a
    non-finite result; an overflow on the way is not warned about, it shows
    as that result.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    norm = np.linalg.norm(A, 1)
    if not norm <= _THETA[13] * 2.0**511:
        raise IntegrationBlowupError(f"matrix exponential of a matrix with 1-norm {norm:.6g}")
    A2 = A @ A
    for m in (3, 5, 7, 9):
        if norm <= _THETA[m]:
            b = _PADE[m]
            Ak, U, V = eye, b[1] * eye, b[0] * eye
            for j in range(2, m + 1, 2):
                Ak = Ak @ A2
                U, V = U + b[j + 1] * Ak, V + b[j] * Ak
            U = A @ U
            return np.linalg.solve(V - U, V + U)
    s = max(0, int(np.ceil(np.log2(norm / _THETA[13]))))
    A, A2 = A / 2.0**s, A2 / 4.0**s
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE[13]
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
    M^m .. M^(2m-1), so ceil(log2(K+1)) passes in all.
    """
    M = np.asarray(M, dtype=float)
    out = np.empty((K + 1,) + M.shape)
    out[0] = np.eye(M.shape[0])
    m, Mm = 1, M
    while m <= K:
        j = min(m, K + 1 - m)
        out[m:m + j] = out[:j] @ Mm
        m, Mm = 2 * m, Mm @ Mm
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


def _compose(L, R, n):
    """Batched composition of affine maps, R first: [T_L T_R | T_L c_R + c_L]
    from L = [T_L | c_L] and R = [T_R | c_R]."""
    out = L[:, :, :n] @ R
    out[:, :, n:] += L[:, :, n:]
    return out


def _prefix_compose(TC, n):
    """Inclusive prefix composition of the affine maps v -> T_j v + c_j.

    TC[j] = [T_j | c_j] with T_j of shape (n, n).  Returns [P_j | C_j], where
    v -> P_j v + C_j applies maps 0..j in order.  Odd-even scan (Ladner and
    Fischer 1980; Blelloch 1990): compose the pairs (2i, 2i+1), scan the
    pairs recursively for the odd entries, then compose each even entry
    2i >= 2 with pair prefix i - 1.  About 2K compositions in all, in
    2 ceil(log2 K) batched calls, against K log2 K for a doubling scan.
    """
    K = len(TC)
    if K == 1:
        return TC
    pairs = _prefix_compose(_compose(TC[1::2], TC[:K - 1:2], n), n)
    out = np.empty_like(TC)
    out[0] = TC[0]
    out[1::2] = pairs
    out[2::2] = _compose(TC[2::2], pairs[:(K - 1) // 2], n)
    return out


def rk4_affine(H, f, v0, grid, forward=True):
    """RK4 for dv/dt = H(t) v + f(t) with H, f given as node arrays (f may
    be None).

    v0 is the value at t_start (forward) or t_end (backward), a vector (n,)
    or a matrix (n, m).  f has the state's shape at every node, or is a
    vector path (K+1, n) forcing every column of a matrix state alike.
    Returns the full forward-indexed array of node values and raises
    IntegrationBlowupError at the first non-finite node.

    One RK4 step is affine in v, v_{k+1} = T_k v_k + c_k, so no step loop
    runs: _rk4_step, called once for all K steps on the state [I | 0] under
    the forcing [0 | f], gives every [T_k | c_k]; the odd-even prefix scan
    composes them (about 2K compositions in 2 ceil(log2 K) batched calls),
    and node values are P_k v0 + C_k.  The K steps read half-nodes 2k,
    2k + 1 and 2k + 2 (reversed backward), so the three stage coefficients
    are strided views of the half-node arrays, taken once: no stage call
    copies a (K, n, n) block out of them.  A forcing shared by all columns
    is one column of c_k.  With f None every c_k is zero, so the state is I
    and only the T_k are built and composed.
    """
    v0 = np.asarray(v0, dtype=float)
    V0 = v0[:, None] if v0.ndim == 1 else v0
    n, m = V0.shape
    K = grid.steps
    Hh = half_nodes(H)
    fh = None if f is None else half_nodes(f).reshape(2 * K + 1, n, -1)
    w = n if fh is None else n + fh.shape[2]
    if forward:
        h, nodes = grid.dt, np.arange(1, K + 1)
        stages = (slice(0, 2 * K, 2), slice(1, 2 * K, 2), slice(2, None, 2))
    else:
        h, nodes = -grid.dt, np.arange(K - 1, -1, -1)
        stages = (slice(2 * K, 0, -2), slice(2 * K - 1, None, -2), slice(2 * K - 2, None, -2))
    Hs = [Hh[j] for j in stages]
    fs = None if fh is None else [fh[j] for j in stages]

    def rhs(i, v):
        dv = Hs[i] @ v
        if fs is not None:
            dv[:, :, n:] += fs[i]
        return dv

    U0 = np.broadcast_to(np.eye(n, w), (K, n, w))
    out = np.empty((K + 1, n, m))
    out[0 if forward else K] = V0
    with np.errstate(over="ignore", invalid="ignore"):
        TC = _rk4_step(rhs, 0, U0, h, 1)
        PC = _prefix_compose(TC, n)
        vals = PC[:, :, :n] @ V0
        if fh is not None:
            vals += PC[:, :, n:]
        out[nodes] = vals
    # a non-finite step poisons every later prefix, so the first non-finite
    # node in step order is the one the step loop would stop at
    bad = ~np.isfinite(out[nodes]).all(axis=(1, 2))
    if bad.any():
        k = nodes[np.argmax(bad)]
        _check_finite(out[k], k, grid.times[k])
    return out.reshape((K + 1,) + v0.shape)


def rk4_nonlinear(rhs, v0, grid, forward=True):
    """RK4 for dv/dt = rhs(t, v) with a general (possibly nonlinear) rhs."""
    th = half_nodes(grid.times)
    return rk4_steps(lambda i, v: rhs(th[i], v), v0, grid, forward)


def fundamental_solution(H: MatrixPath, t_ref):
    """Fundamental solution Phi with dPhi/dt = H(t) Phi and Phi(t_ref) = I.

    Phi(t) Phi(s)^{-1} is then the state-transition matrix from s to t.
    """
    grid, Hn = H.grid, H.values
    n, m = Hn.shape[1:]
    if n != m:
        raise ValueError(f"H must be square, got {n}x{m}")
    k_ref = grid.index_of(t_ref)
    eye = np.eye(n)
    K = grid.steps
    values = np.empty((K + 1, n, n))
    if k_ref < K:
        sub = grid.subgrid(k_ref, K)
        values[k_ref:] = rk4_affine(Hn[k_ref:], None, eye, sub, forward=True)
    if k_ref > 0:
        sub = grid.subgrid(0, k_ref)
        values[: k_ref + 1] = rk4_affine(Hn[: k_ref + 1], None, eye, sub, forward=False)
    values[k_ref] = eye
    return MatrixPath(grid, values)


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
