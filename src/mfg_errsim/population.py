"""Finite-N agent population simulation (Euler-Maruyama).

A seed gives one numpy stream per purpose, _stream(seed, purpose): the
PCG64 stream of SeedSequence(entropy=seed, spawn_key=(purpose,)) for
sampling, for the agents' dynamics noise and for a run's noise sums.
sample_population takes one (N, 2n) draw, whose row i is agent i's for
every N > i, and the dynamics noise is one node-major (K, N, n) draw,
filled block by block (_noise_blocks), so every result is fixed by its
seed, whatever the iteration order and thread count.

A law is affine in the state: agent i's control at node k is

    u = gain[k] x + offset[k] + error_gain[k] E_i

with node arrays gain (K+1, d, n) = -R^-1 B' P1, offset (K+1, d) and
error_gain (K+1, d, n), or None for a law every agent plays alike; a law
carries them with P1, its errors (N, n) and its grid, on which the run
takes place.  Every agent's step then has the matrix I + dt
agent_generator(P1), so _step_agents, the one stepping routine here, sweeps
each chunk's (or block's) step maps up once and prefix-scans shared columns
against them.  realtime_simulate, whose controls come from an estimator policy at
each node, steps node by node with _noise_matrix, _noise_blocks, _drift and
agent_sum.

A run keeps node arrays, not paths: the step being affine, the node sum of
the states steps by the same map as one agent, from the sum of x0, with
the summed forcing and the agents' summed noise S_k, so simulate scans one
column per node, a chunk of _SUM_CHUNK nodes at a time, forms no agent's
state and holds O(N) memory beyond its (K+1, .) node arrays.  An
elementwise bound on the states, scanned beside it, shows them finite; a
run where it cannot is redone once with paths.  The run draws S_k =
sqrt(N) g_k, K n normals of its own stream, and agent i steps with n_ik -
nbar_k + S_k / N, its entry of the dynamics draw less the agents' mean plus
the run's share: the mean of iid Gaussians is independent of the
deviations from it, so these are N iid standard normals per node (S_k
itself at N = 1), and the dynamics stream is drawn only for paths (see
PopulationResult).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import FeedbackLaw
from .errors import IntegrationBlowupError, PopulationError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import _scan, _up_sweep
from .params import SystemParams, require_same_params
from .riccati import agent_generator, mf_generator

# the purposes of a seed's streams, their spawn keys (see _stream)
_SAMPLING, _DYNAMICS, _RUN = 0, 1, 2
# nodes per block of a run with paths, and per refill of a noise buffer
_NOISE_BLOCK = 128
# nodes per chunk of a run's node-sum scans, a multiple of _NOISE_BLOCK
_SUM_CHUNK = 512
# column chunks of the agents' noise per block scan (see _step_agents)
_NOISE_CHUNKS = 4
# a run without paths is redone with paths where its states' bound passes this
_STATE_BOUND = np.finfo(float).max / 2
# |standard_normal| < 13.71: numpy's ziggurat tail is r - log1p(-u) / r with
# r = 3.6541528853610088 and u <= 1 - 2**-53, at most r + 53 ln 2 / r = 13.7076
_NORMAL_MAX = 13.71


def _check_seed(seed):
    """PopulationError unless seed is a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise PopulationError(f"seed must be a non-negative integer, got {seed!r}")


def _stream(seed, purpose):
    """The generator of seed's stream of a purpose (_SAMPLING, _DYNAMICS or
    _RUN), the one place a seed becomes numbers."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


def _cov_factor(cov, name, n):
    """Matrix L with L L' = cov for a finite symmetric PSD (n, n) cov
    (PopulationError otherwise); tolerates PSD-singular covariances."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (n, n) or not (np.isfinite(cov).all() and np.allclose(cov, cov.T, atol=1e-12)):
        raise PopulationError(f"{name} of shape {cov.shape} is not a finite symmetric "
                              f"({n}, {n}) matrix")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(cov)
        if np.min(w) < -1e-12:
            raise PopulationError(f"{name} must be positive semidefinite") from None
        return V * np.sqrt(np.clip(w, 0.0, None))


def _agent_rows(params, population, law=None):
    """The initial states x0 and errors E_i of population, a sequence of
    (x0, E_i) pairs, as two (N, n) arrays; PopulationError unless it has an
    agent, every x0 and E_i is n = params.n finite numbers and law, if it
    has an error gain, holds the population's (N, n) errors."""
    N, n = len(population), params.n
    if N < 1:
        raise PopulationError("a population needs at least one agent, got 0")
    rows = []
    for j, name in enumerate(("x0", "E_i")):
        try:
            a = np.array([p[j] for p in population], dtype=float)
        except ValueError:   # rows of different widths, or not numbers
            a = None
        if a is None or a.shape != (N, n):
            i = next((i for i, p in enumerate(population) if np.shape(p[j]) != (n,)), None)
            what = (f"of agent {i} has shape {np.shape(population[i][j])}, not ({n},)"
                    if i is not None else "holds values that are not numbers")
            raise PopulationError(f"{name} {what}, in a population of {N} on n = {n}")
        bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
        if len(bad):
            raise PopulationError(f"{name} of agent {bad[0]} is not finite: {a[bad[0]]}")
        rows.append(a)
    if law is not None and law.error_gain is not None and np.shape(law.errors) != (N, n):
        raise PopulationError(
            f"the law holds errors of shape {np.shape(law.errors)}, not ({N}, {n}), "
            f"for {N} agents on n = {n}")
    return rows


@dataclass
class AgentTrace:
    """Realized path of one agent of a PopulationResult; its drift is a
    view of the result's drifts, derived on first read."""

    agent_id: int
    x: VectorPath
    u: VectorPath
    result: PopulationResult = field(repr=False)

    @property
    def drift(self) -> VectorPath:
        return VectorPath(self.x.grid, self.result.drifts[:, self.agent_id, :])


@dataclass
class PopulationResult:
    """Realized paths of N agents; entry [k, i] of xs, us and drifts is
    agent i at node k.

    The run keeps node arrays only: the node means x_N and u_N, numpy's mean
    of xs and us to rounding (see _step_agents), and coupling, the (K+1, n)
    and (K+1, d) node arrays (mf_x, mf_u) it stepped with, the population's
    mean state and control under empirical coupling, else the prescribed
    (z, ubar) arrays, kept by reference.  The first read of xs, us or a
    trace reruns the run with paths (O(N K) memory) under the recorded
    coupling, with the run's law, x0, seed and D, and caches both (a run
    simulate redid with paths keeps that run's), the same bits whenever they
    are built; trace(i) is views of them.  replay(i, ...) reruns every agent
    the same way under another law and coupling and keeps copies of agent
    i's paths.  The first read of drifts derives A x + B u + C mf_x + F mf_u
    at every node from xs, us and the coupling, and caches it.
    """

    params: SystemParams
    grid: TimeGrid
    errors: np.ndarray   # (N, n) initial-information errors
    x_N: VectorPath
    u_N: VectorPath
    coupling: tuple = field(repr=False)
    law: FeedbackLaw = field(repr=False)
    x0: np.ndarray = field(repr=False)   # (N, n) initial states
    seed: int
    D: object

    @cached_property
    def _paths(self):
        return _step_agents(self.law, self.x0, self.coupling, self.seed, self.D, paths=True)[-1]

    @property
    def xs(self) -> np.ndarray:
        """(K+1, N, n) state of every agent at every node."""
        return self._paths[0]

    @property
    def us(self) -> np.ndarray:
        """(K+1, N, d) control of every agent at every node."""
        return self._paths[1]

    @cached_property
    def drifts(self) -> np.ndarray:
        """(K+1, N, n) drift of every agent at every node."""
        params = self.params
        At, Bt = (np.ascontiguousarray(M.T) for M in (params.A, params.B))
        drifts = np.empty_like(self.xs)
        for k, args in enumerate(zip(self.xs, self.us, *self.coupling)):
            drifts[k] = _drift(params, At, Bt, *args)
        return drifts

    def trace(self, i: int) -> AgentTrace:
        """Agent i's paths, views of xs and us."""
        i = range(len(self.errors))[i]
        return AgentTrace(agent_id=i, x=VectorPath(self.grid, self.xs[:, i]),
                          u=VectorPath(self.grid, self.us[:, i]), result=self)

    def replay(self, i: int, law, z_path: VectorPath, ubar_path: VectorPath):
        """Agent i's paths (x, u) under law against prescribed mean-field
        paths, from its x0 with its noise in the run (under the run's law
        and coupling, its trace bit for bit): copies of its column of a
        rerun of every agent, which they do not keep.  law must be of the
        run's parameter set (ParamsMismatchError) and grid (GridMismatchError),
        and hold the errors of the run's agents if it has an error gain
        (PopulationError, see _agent_rows)."""
        require_same_params(self.params, law, "law")
        grid = require_same_grid(self, law, z_path, ubar_path)
        i = range(len(self.x0))[i]
        _agent_rows(self.params, list(zip(self.x0, self.errors)), law)
        xs, us = _step_agents(law, self.x0, (z_path.values, ubar_path.values), self.seed,
                              self.D, paths=True)[-1]
        return VectorPath(grid, xs[:, i].copy()), VectorPath(grid, us[:, i].copy())

    @property
    def traces(self) -> Sequence:
        """Every agent's trace, in agent order."""
        return _Traces(self)


class _Traces(Sequence):
    """A result's traces, each built when indexed."""

    def __init__(self, result):
        self._result = result

    def __len__(self):
        return len(self._result.errors)

    def __getitem__(self, i):
        return self._result.trace(i)


def sample_population(N, init_mean, init_cov, error_mean, error_cov, seed):
    """Draw (x0, E_i) pairs for N agents from one (N, 2n) draw of the seed's
    sampling stream, whose row i is agent i's for every N > i: x0 =
    init_mean + L_init z and E_i = error_mean + L_err z' take its first and
    last n, L L' the covariance (PopulationError for N < 1, a seed that is
    not a non-negative integer and means or covariances that do not fit)."""
    if N < 1:
        raise PopulationError(f"N must be >= 1, got {N}")
    _check_seed(seed)
    init_mean = np.atleast_1d(np.asarray(init_mean, dtype=float))
    error_mean = np.atleast_1d(np.asarray(error_mean, dtype=float))
    n = init_mean.shape[0]
    if init_mean.ndim != 1 or error_mean.shape != init_mean.shape:
        raise PopulationError(f"means of shapes {init_mean.shape} and {error_mean.shape} "
                              "are not two n-vectors")
    L_init = _cov_factor(init_cov, "init_cov", n)
    L_err = _cov_factor(error_cov, "error_cov", n)
    z = _stream(seed, _SAMPLING).standard_normal((N, 2 * n))
    # the stacked products give each agent the bits of L @ its own draws,
    # which z @ L.T does not
    x0 = init_mean + (L_init @ z[:, :n, None])[..., 0]
    E = error_mean + (L_err @ z[:, n:, None])[..., 0]
    return list(zip(x0, E))


@dataclass
class OffsetFamilyLaw(FeedbackLaw):
    """Affine laws sharing P1 but with per-agent offsets g_i = g + Mg E_i,
    so agent i's control adds error_gain E_i, error_gain = -R^-1 B' Mg;
    errors holds the E_i of the agents in order."""

    Mg: MatrixPath
    errors: np.ndarray

    def __post_init__(self):
        self.errors = np.asarray(self.errors, dtype=float)

    @cached_property
    def error_gain(self) -> np.ndarray:
        """-R^-1 B' Mg at every node, (K+1, d, n)."""
        return -(self.params.RinvBt @ self.Mg.values)


def agent_sum(a):
    """Sum over the agent axis of a (..., N, n) array, bitwise a.sum(axis=-2):
    for n > 1 numpy adds the agents one after the other, as einsum does about
    four times faster (N = 2000, numpy 2.4, 2-vCPU x86-64); for n = 1 numpy
    sums the contiguous agent axis pairwise, which einsum does not."""
    if a.shape[-1] == 1:
        return a.sum(axis=-2)
    return np.einsum("...ij->...j", a)


def _drift(params, At, Bt, x, u, mf_x, mf_u):
    """Drifts A x + B u + C mf_x + F mf_u of the agents' rows of x and u,
    accumulated in that order.  At and Bt are contiguous A' and B' (see
    realtime_simulate); the one-row mean-field products keep the views, as
    they go through another BLAS kernel, where a copy changes the bits."""
    drift = x @ At
    drift += u @ Bt
    drift += mf_x @ params.C.T
    drift += mf_u @ params.F.T
    return drift


def _mean_overflow(grid, k, what="states"):
    """The error for a node sum of finite states (or controls) that
    overflowed at node k, so that their mean is not finite."""
    return IntegrationBlowupError(f"the mean of finite {what} overflowed at node {k}",
                                  node=k, time=grid.times[k])


def _noise_matrix(params, D):
    """The noise matrix params.D, or D: a finite scalar, standing for D
    times I, or a finite (n, n) matrix (PopulationError otherwise); None
    where it is zero, so a run is noiseless for D == 0 exactly."""
    n = params.n
    try:
        M = params.D if D is None else np.asarray(D, dtype=float)
    except (TypeError, ValueError):   # not numbers, or rows of different lengths
        M = None
    if M is None or M.shape not in ((), (n, n)) or not np.isfinite(M).all():
        shape = "" if M is None else f" of shape {M.shape}"
        raise PopulationError(f"D{shape} is not a finite scalar or ({n}, {n}) matrix, on n = {n}")
    M = np.eye(n) * M if M.ndim == 0 else M
    return M if M.any() else None


def _noise_blocks(seed, N, K, n):
    """Dynamics noise of N agents for steps 0..K-1, the numbers of one
    node-major (K, N, n) draw of the seed's dynamics stream: per block of
    m <= _NOISE_BLOCK steps, an (m, N, n) view of one buffer, which one
    standard_normal call fills."""
    rng = _stream(seed, _DYNAMICS)
    noise = np.empty((min(_NOISE_BLOCK, K), N, n))
    for k0 in range(0, K, _NOISE_BLOCK):
        m = min(_NOISE_BLOCK, K - k0)
        rng.standard_normal(out=noise[:m])
        yield noise[:m]


@np.errstate(over="ignore", invalid="ignore")
def _step_agents(law, x0, coupling, seed, D, paths=False):
    """Euler-Maruyama run of N agents from the rows of x0 (N, n) under the
    affine law, D as in _noise_matrix.  Returns the node sums (K+1, n) and
    (K+1, d) of the states and controls, the coupling (mf_x, mf_u) it
    stepped with (coupling, or for None the population means) and for paths
    True the paths xs (K+1, N, n) and us (K+1, N, d), else None; or None
    alone where a run without paths cannot show its states finite.

    Agent i's step k is x -> T_k x + f_k + dt B W_k E_i + sqrt(dt) D n'_ik,
    T_k = I + dt agent_generator(P1)_k and f_k = dt (B offset_k + C mf_x_k
    + F mf_u_k) the same for every agent, W the error gain and n'_ik =
    n_ik - nbar_k + S_k / N.  The run goes in chunks of _SUM_CHUNK steps,
    and each recurrence below is one ode._scan of one column per node
    against the ode._up_sweep levels of its chunk's step maps, the first
    column carrying the value at the chunk's first node k0:

    - under empirical coupling, the mean m -> M_k m + dt (B+F) vbar_k +
      sqrt(dt) D S_k / N, M_k = I + dt mf_generator(P1)_k and vbar the mean
      offset, gives mf_x, and mf_u = gain mf_x + vbar;
    - without paths, the state sum x_sum -> T_k x_sum + N f_k + dt B W_k
      sum_i E_i + sqrt(dt) D S_k gives the node sums of the states, and
      u_sum = gain x_sum + N offset + W sum_i E_i those of the controls: no
      agent's state is formed nor its noise drawn;
    - without paths, b -> |T_k| b + |f_k| + |dt B W_k| max_i |E_i| +
      |sqrt(dt) D| (2 _NORMAL_MAX + |S_k| / N), from b_0 = max_i |x0_i|,
      bounds the states elementwise, |x_ik| <= b_k, as |T_l ... T_j| <=
      |T_l| ... |T_j| and |n_ik - nbar_k| <= 2 _NORMAL_MAX: the run returns
      None once b reaches _STATE_BOUND.

    With paths, each block of _NOISE_BLOCK steps from node k0 scans the
    columns [T_k0 | f_k | dt B W_k] (the first n zero after the first step)
    against its own levels for [P_j | c_j | CE_j]: agent i's state at node
    k0 + j + 1 is z_i [P_j | c_j | CE_j]', z_i = [x_k0 | 1 | E_i], and its
    control z_i U_j, U_j = [P_j | c_j | CE_j]' gain' + [0 | offset | W]',
    each plus its noise part, the scan of the columns sqrt(dt) D n_ik plus
    the agents' shared shift sqrt(dt) D (S_k / N - nbar_k).  The block's
    states and controls are written out node by node, for all agents or a
    chunk of them at once, the node sums are the sums of those paths, and
    the next block starts from the last node's rows.  No step map is
    inverted, and no product of a written block mixes two agents, so under
    prescribed coupling an agent's bits are fixed by its row, its entries
    of the dynamics draw, nbar and S, and a run with paths against an
    earlier run's coupling gives its paths bit for bit.  A non-finite state
    raises IntegrationBlowupError naming its first node and agent, as under
    empirical coupling does a mean of x0 that overflows, at node 0; a node
    sum that overflows on finite states is returned as it is.
    """
    N, n = x0.shape
    params, grid = law.params, law.grid
    K, dt, d = grid.steps, grid.dt, params.d
    B, C, F = params.B, params.C, params.F
    D = _noise_matrix(params, D)
    noisy = D is not None
    if noisy:
        # the node sums' g, chunk by chunk the numbers of one (K, n) draw
        run = _stream(seed, _RUN)
        sqdtD = np.sqrt(dt) * D
    gain, offset, W = law.gain, law.offset, law.error_gain
    if W is not None:
        E_sum = agent_sum(law.errors)
    P1 = law.P1.values
    eye = np.eye(n)
    x_sum, u_sum = np.empty((K + 1, n)), np.empty((K + 1, d))
    x_sum[0] = agent_sum(x0)
    if coupling is None:
        mf_x, mf_u = np.empty((K + 1, n)), np.empty((K + 1, d))
        mf_x[0] = x_sum[0] / N
        if not np.isfinite(mf_x[0]).all():
            raise _mean_overflow(grid, 0)
    else:
        mf_x, mf_u = coupling
    if paths:
        lone = N == 1
        if lone:
            # a lone agent steps beside a copy of itself: numpy multiplies a
            # one-row operand by other BLAS kernels (gemv), whose bits differ
            x0 = np.repeat(x0, 2, axis=0)
        rows = len(x0)
        # the rows [x | 1 | E_i] of the agents, updated to each block's x_k0
        e = 0 if W is None else n
        Z = np.empty((rows, n + 1 + e))
        Z[:, :n] = x0
        Z[:, n] = 1.0
        if W is not None:
            Z[:, n + 1:] = law.errors[np.arange(rows) % N]   # the lone agent's twice
        xs, us = np.empty((K + 1, rows, n)), np.empty((K + 1, rows, d))
        xs[0] = x0
        # the lone agent's node sums are its own path
        node_sums = (lambda a: a[..., 0, :]) if lone else agent_sum
        if noisy:
            blocks = _noise_blocks(seed, N, K, n)
        # a noisy block's paths scan the agents' noise in _NOISE_CHUNKS near-equal
        # chunks of two agents or more, whose scan transients stay near the buffer's size
        chunks = min(_NOISE_CHUNKS, rows // 2) if noisy else 1
        edges = [rows * j // chunks for j in range(chunks + 1)]
    else:
        bound = np.abs(x0).max(axis=0)
        if W is not None:
            E_max = np.abs(law.errors).max(axis=0)
    for k0 in range(0, K, _SUM_CHUNK):
        k1 = min(k0 + _SUM_CHUNK, K)
        m = k1 - k0
        hi = k1 + 1 if k1 == K else k1   # nodes k0..hi-1 take their controls here
        WE = 0.0 if W is None else W[k0:hi] @ E_sum
        if noisy:
            S = np.sqrt(N) * run.standard_normal((m, n))
        if coupling is None:
            M = eye + dt * mf_generator(params, P1[k0:k1])
            vbar = offset[k0:hi] + WE / N
            col = dt * (vbar[:m] @ (B + F).T)
            if noisy:
                col += (S / N) @ sqdtD.T
            col[0] += M[0] @ mf_x[k0]
            mf_x[k0 + 1:k1 + 1] = _scan(_up_sweep(M), col[..., None])[..., 0]
            mf_u[k0:hi] = (gain[k0:hi] @ mf_x[k0:hi, :, None])[..., 0] + vbar
            del M   # before the agents' maps are formed
        T = eye + dt * agent_generator(params, P1[k0:k1])
        f = dt * (offset[k0:k1] @ B.T + mf_x[k0:k1] @ C.T + mf_u[k0:k1] @ F.T)
        if not paths:
            col = N * f
            if W is not None:
                col += dt * (WE[:m] @ B.T)
            if noisy:
                col += S @ sqdtD.T
            col[0] += T[0] @ x_sum[k0]
            x_sum[k0 + 1:k1 + 1] = _scan(_up_sweep(T), col[..., None])[..., 0]
            u_sum[k0:hi] = ((gain[k0:hi] @ x_sum[k0:hi, :, None])[..., 0]
                            + N * offset[k0:hi] + WE)
            # the state bound at the chunk's nodes, from its value at k0
            w = np.abs(f)
            if W is not None:
                w += np.abs(dt * (B @ W[k0:k1])) @ E_max
            if noisy:
                w += (2 * _NORMAL_MAX + np.abs(S) / N) @ np.abs(sqdtD).T
            np.abs(T, out=T)
            w[0] += T[0] @ bound
            bounds = _scan(_up_sweep(T), w[..., None])[..., 0]
            if not bounds.max() < _STATE_BOUND:
                return None
            bound = bounds[-1]
            continue
        for b0 in range(k0, k1, _NOISE_BLOCK):
            b1 = min(b0 + _NOISE_BLOCK, K)
            mb, j0, j1 = b1 - b0, b0 - k0, b1 - k0
            bhi = b1 + 1 if b1 == K else b1   # nodes b0..bhi-1 take their controls here
            levels = _up_sweep(T[j0:j1])
            if noisy:
                # the noise part's columns sqrt(dt) D n_ik and the shift
                # sqrt(dt) D (S_k / N - nbar_k) that all agents share
                noise = next(blocks)
                shift = ((S[j0:j1] - agent_sum(noise)) / N) @ sqdtD.T
                if lone:
                    noise = noise[:, [0, 0]]
            # [P_j | c_j | CE_j]' from the block's columns [T_b0 | f_k | dt B W_k]
            cols = np.zeros((mb, n, n + 1 + e))
            cols[0, :, :n] = levels[0][0]
            cols[:, :, n] = f[j0:j1]
            if W is not None:
                cols[:, :, n + 1:] = dt * (B @ W[b0:b1])
            PT = np.ascontiguousarray(np.swapaxes(_scan(levels, cols), 1, 2))
            # [1 | E_i] takes the control terms [offset | W]', and x its gain'
            gainT = np.ascontiguousarray(np.swapaxes(gain[b0 + 1:bhi], 1, 2))
            U = np.zeros((bhi - b0, n + 1 + e, d))
            U[0, :n] = gain[b0].T
            U[1:] = PT[:bhi - b0 - 1] @ gainT
            U[:, n] += offset[b0:bhi]
            if W is not None:
                U[:, n + 1:] += np.swapaxes(W[b0:bhi], 1, 2)
            xb, ub = xs[b0 + 1:b1 + 1], us[b0:bhi]
            for a, b in zip(edges, edges[1:]):
                x, u = xb[:, a:b], ub[:, a:b]
                np.matmul(Z[a:b], PT, out=x)
                np.matmul(Z[a:b], U, out=u)
                if noisy:
                    cols = sqdtD @ noise[:, a:b].transpose(0, 2, 1)
                    cols += shift[..., None]
                    # a product with I moves the agents from columns to rows:
                    # exact, and faster than numpy's strided copy
                    dx = np.swapaxes(_scan(levels, cols), 1, 2) @ eye
                    x += dx
                    u[1:] += dx[:bhi - b0 - 1] @ gainT
                    del dx   # before the next chunk's scan
            x_sum[b0 + 1:b1 + 1] = node_sums(xb)
            u_sum[b0:bhi] = node_sums(ub)
            # a non-finite state makes its node's sum non-finite; a sum can
            # also overflow on finite states, which the node's rows tell apart
            for j in np.flatnonzero(~np.isfinite(x_sum[b0 + 1:b1 + 1]).all(axis=1)):
                bad = np.flatnonzero(~np.isfinite(xb[j]).all(axis=1))
                if len(bad):
                    k = b0 + 1 + int(j)
                    raise IntegrationBlowupError(f"agent {bad[0]} state non-finite at node {k}",
                                                 node=k, time=grid.times[k])
            Z[:, :n] = xb[mb - 1]
    if paths and lone:
        xs, us = xs[:, :1].copy(), us[:, :1].copy()
    return x_sum, u_sum, (mf_x, mf_u), (xs, us) if paths else None


def _prescribed(params, mf_coupling):
    """The prescribed mean-field paths of simulate's mf_coupling: () for
    "empirical", else a pair (z_path, ubar_path) of VectorPaths of widths
    n and d.  Anything else is a PopulationError naming its type and its
    items' types and shapes (a string's repr)."""
    if isinstance(mf_coupling, str) and mf_coupling == "empirical":
        return ()
    items = list(mf_coupling) if isinstance(mf_coupling, (tuple, list)) else [mf_coupling]
    if len(items) == 2 and all(isinstance(p, VectorPath) and p.values.shape[1] == w
                               for p, w in zip(items, (params.n, params.d))):
        return tuple(items)
    got = ", ".join(repr(p) if isinstance(p, str) else
                    f"{type(p).__name__} {getattr(getattr(p, 'values', p), 'shape', '')}"
                    for p in items)
    raise PopulationError(f'mf_coupling must be "empirical" or a pair (z_path, ubar_path) of '
                          f"VectorPaths of widths n = {params.n} and d = {params.d}, got "
                          f"{type(mf_coupling).__name__} [{got}]")


def simulate(
    params: SystemParams,
    population,
    law,
    mf_coupling="empirical",
    grid: TimeGrid | None = None,
    seed: int = 0,
    D=None,
) -> PopulationResult:
    """Euler-Maruyama integration of N agents who all play law.

    population is a sequence of N >= 1 pairs (x0, E_i) of width n (see
    _agent_rows); law, an affine law of the parameter set params
    (ParamsMismatchError otherwise), carries its grid, on which the run
    takes place (grid, if given, must be the same).  mf_coupling is
    "empirical" (start-of-step population averages) or a (z_path, ubar_path)
    pair of prescribed mean-field paths on that grid (PopulationError
    otherwise); D overrides the noise matrix (see _noise_matrix), and seed,
    a non-negative integer (PopulationError otherwise), fixes the noise
    (see the module docstring).  The result
    keeps the node arrays (see _step_agents, PopulationResult), or those and
    the paths of a run redone with paths where the state bound cannot show
    the states finite.  A non-finite state, or a node mean of finite states or controls
    that overflows, raises IntegrationBlowupError naming the node.
    """
    require_same_params(params, law, "law")
    paths = _prescribed(params, mf_coupling)
    grid = require_same_grid(law if grid is None else grid, law, *paths)
    x0, errors = _agent_rows(params, population, law)
    _check_seed(seed)
    N = len(x0)
    args = (law, x0, tuple(p.values for p in paths) or None, seed, D)
    x_sum, u_sum, coupling, built = _step_agents(*args) or _step_agents(*args, paths=True)
    # _step_agents raised on a non-finite state (and so on a non-finite
    # control before node K): a non-finite node sum here is an overflow
    finite = np.isfinite(x_sum).all(axis=1)
    bad = np.flatnonzero(~(finite & np.isfinite(u_sum).all(axis=1)))
    if len(bad):
        raise _mean_overflow(grid, bad[0], "states" if not finite[bad[0]] else "controls")
    # the node means in place of the sums, which the run holds no copy of
    res = PopulationResult(params=params, grid=grid, errors=errors,
                           x_N=VectorPath(grid, np.divide(x_sum, N, out=x_sum)),
                           u_N=VectorPath(grid, np.divide(u_sum, N, out=u_sum)),
                           coupling=coupling, law=law, x0=x0, seed=seed, D=D)
    if built is not None:
        res._paths = built   # the fallback run's, the rerun's bit for bit
    return res

