"""Finite-N agent population simulation (Euler-Maruyama).

Each agent owns two dedicated RNG streams derived from (seed, agent_id): one
for initial sampling and one for dynamics noise.  This makes every result
independent of iteration order and thread count, and lets a single agent's
trajectory be replayed bit-for-bit against different mean-field inputs.
Agent i's stream of a purpose is the PCG64 stream of
SeedSequence(entropy=seed, spawn_key=(purpose, i)), but _agent_rngs seeds
the streams of many agents in one pass: the agents share the SeedSequence
pool of (seed, purpose), and only the mixing-in of the agent id and the
output hash of generate_state, a few uint32 multiplies and shifts, run over
the agent axis, so each PCG64 receives the same four words as from its own
SeedSequence, for a fraction of the cost.

A law is affine in the state: agent i's control at node k is

    u = gain[k] x + offset[k] + error_gain[k] E_i

with node arrays gain (K+1, d, n) = -R^-1 B' P1 and offset (K+1, d), and
error_gain (K+1, d, n) or None for a law every agent plays alike.  A law
carries them with P1, its errors (N, n) when it has an error gain, and its
grid, on which the run takes place.  An Euler-Maruyama step is then an
affine map of each agent's state whose matrix I + dt agent_generator(P1) all
agents share, so _step_agents, the one stepping routine here, sweeps each
noise block's step maps up once and prefix-scans shared columns against
them instead of stepping node by node.  realtime_simulate, whose controls
come from an estimator policy at each node, steps node by node with this
module's _noise_matrix, _noise_blocks, _drift and agent_sum.

A run keeps node arrays, not paths.  The step being affine, a block's node
sums follow from the sum of the agents' rows [x | 1 | E_i] at its first
node, itself the last node sum, and the agents' summed noise, so simulate
forms no agent's state and holds O(N) memory beyond its (K+1, .) node
arrays; a run whose norm bound, one scalar, cannot show the states finite
is redone once with paths (O(N K) memory, for states near the largest
double).  Its result builds the paths when they are read (see
PopulationResult).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import FeedbackLaw
from .errors import IntegrationBlowupError, PopulationError
from .grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from .ode import _scan, _up_sweep
from .params import SystemParams, require_same_params
from .riccati import agent_generator, mf_generator

_SAMPLING = 0
_DYNAMICS = 1
# nodes of dynamics noise drawn per refill of the noise buffer, and nodes per
# block of simulate's scans
_NOISE_BLOCK = 128
# column chunks of the agents' noise per block scan (see _step_agents)
_NOISE_CHUNKS = 4
# a run without paths is redone with paths where its states' norm bound passes this
_STATE_BOUND = np.finfo(float).max / 2


# numpy's SeedSequence constants: the hash multipliers of its pool mixing
# (A) and of generate_state (B), and the multipliers of its mix function
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class _StateWords(ISeedSequence):
    """Seed material that hands a bit generator words computed beforehand,
    the generate_state(4, uint64) of a SeedSequence, which PCG64 reads."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _xshift(v):
    v ^= v >> 16
    return v


def _agent_rngs(seed: int, ids, purpose: int) -> list:
    """The generators Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(purpose, i)))) of the agents i in ids, seeded in one pass.

    The spawn key's words (purpose, i) come last in a SeedSequence's
    entropy, so the pool of SeedSequence(entropy=seed, spawn_key=(purpose,))
    is every agent's pool before i is mixed in: i is hashed into each of the
    four pool words (the hash multiplier advanced past the 4 + 12 + 4 (w -
    3) hashes of the w >= 4 seed words and the purpose), and generate_state
    hashes the pool out to eight uint32 words, both over the agent axis.
    numpy validates seed, a non-negative integer of any width; every id is
    below 2**32, one entropy word.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose,))
    words = max(4, -(-operator.index(ss.entropy).bit_length() // 32))
    h = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 3), 1 << 32) & _MASK32
    ids = np.asarray(ids, dtype=np.uint32)
    pool = np.empty((4, len(ids)), dtype=np.uint32)
    for j, word in enumerate(ss.pool):
        v = ids ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        v *= np.uint32(h)
        pool[j] = _xshift(np.uint32(_MIX_L * int(word) & _MASK32) - _xshift(v) * np.uint32(_MIX_R))
    state = np.empty((len(ids), 8), dtype=np.uint32)
    h = _INIT_B
    for j in range(8):
        v = pool[j % 4] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        v *= np.uint32(h)
        state[:, j] = _xshift(v)
    # little-endian word pairs, as generate_state forms its uint64 words
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in state]


def _cov_factor(cov, name, n):
    """Matrix L with L L' = cov for a finite symmetric PSD (n, n) cov
    (PopulationError otherwise); tolerates PSD-singular covariances."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (n, n) or not (np.isfinite(cov).all() and np.allclose(cov, cov.T, atol=1e-12)):
        raise PopulationError(f"{name} of shape {cov.shape} is not a finite symmetric "
                              f"({n}, {n}) matrix")
    if np.allclose(cov, 0.0):
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(cov)
        if np.min(w) < -1e-12:
            raise PopulationError(f"{name} must be positive semidefinite") from None
        return V * np.sqrt(np.clip(w, 0.0, None))


def _agent_rows(params, population, law=None):
    """The initial states x0 and errors E_i of population, a sequence of
    (x0, E_i) pairs, as two (N, n) arrays.  Raises PopulationError unless
    the population has an agent, every x0 and E_i is n = params.n finite
    numbers and law, if it has an error gain, holds the (N, n) errors of
    the population's N agents."""
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
    """Realized path of one agent of a PopulationResult.

    The drift, kept for validation, is read from the result's drifts, which
    are derived from the states and controls on first read.
    """

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

    The run keeps node arrays only: the node means x_N and u_N, formed by
    linearity from the agents' summed rows and noise (see _step_agents), so
    numpy's mean of xs and us to rounding, and coupling, the pair of
    (K+1, n) and (K+1, d) node arrays (mf_x, mf_u) the run stepped with,
    that is the population's mean state and control as the run's mean scan
    gives them under empirical coupling, else the prescribed (z, ubar)
    arrays, kept by reference.  Its agents' paths take O(N K) memory, so the
    first read of xs or us reruns the run with paths under the recorded
    coupling, with the run's law, x0, seed and D, and caches both (a run
    simulate redid with paths keeps that run's): that gives the paths bit
    for bit whenever they are built, and before that trace(i) steps agent i
    alone the same way, as replay(i, ...) does under another law and
    coupling.  The first read of drifts derives every node's drift
    A x + B u + C mf_x + F mf_u from xs[k], us[k] and the coupling, and
    caches it.
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

    def _rerun(self, a, b, law=None, coupling=None):
        """Paths (xs, us) of the agents a..b-1 from their x0, with the run's
        seed and D, under law and coupling, the run's own unless given."""
        return _step_agents(law or self.law, self.x0[a:b], range(a, b),
                            coupling or self.coupling, self.seed, self.D, paths=True)[-1]

    @cached_property
    def _paths(self):
        return self._rerun(0, len(self.x0))

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
        """Agent i's paths: views of xs and us once built, else a lone run."""
        i = range(len(self.errors))[i]
        if "_paths" in vars(self):
            x, u = self.xs[:, i], self.us[:, i]
        else:
            xs, us = self._rerun(i, i + 1)
            x, u = xs[:, 0], us[:, 0]
        return AgentTrace(agent_id=i, x=VectorPath(self.grid, x), u=VectorPath(self.grid, u),
                          result=self)

    def replay(self, i: int, law, z_path: VectorPath, ubar_path: VectorPath):
        """Agent i's paths (x, u) under law against prescribed mean-field
        paths, from its x0 with its own dynamics noise stream (under the
        run's law and coupling, its trace bit for bit).  law must be of the
        run's parameter set (ParamsMismatchError) and grid (GridMismatchError),
        and hold the errors of the run's agents if it has an error gain
        (PopulationError, see _agent_rows)."""
        require_same_params(self.params, law, "law")
        grid = require_same_grid(self, law, z_path, ubar_path)
        i = range(len(self.x0))[i]
        _agent_rows(self.params, list(zip(self.x0, self.errors)), law)
        xs, us = self._rerun(i, i + 1, law, (z_path.values, ubar_path.values))
        return VectorPath(grid, xs[:, 0]), VectorPath(grid, us[:, 0])

    @property
    def traces(self) -> Sequence:
        """Every agent's trace, in agent order."""
        return _Traces(self)


class _Traces(Sequence):
    """A result's traces, each built when indexed; iterating builds xs once."""

    def __init__(self, result):
        self._result = result

    def __len__(self):
        return len(self._result.errors)

    def __getitem__(self, i):
        return self._result.trace(i)

    def __iter__(self):
        self._result.xs
        return (self._result.trace(i) for i in range(len(self)))


def sample_population(N, init_mean, init_cov, error_mean, error_cov, seed):
    """Draw (x0, E_i) pairs for N agents from per-agent RNG streams: agent
    i's x0 = init_mean + L_init z and E_i = error_mean + L_err z' take the
    first and the last n of 2n normals of its stream, L L' the covariance
    (PopulationError for N < 1 and for means or covariances that do not fit)."""
    if N < 1:
        raise PopulationError(f"N must be >= 1, got {N}")
    init_mean = np.atleast_1d(np.asarray(init_mean, dtype=float))
    error_mean = np.atleast_1d(np.asarray(error_mean, dtype=float))
    n = init_mean.shape[0]
    if init_mean.ndim != 1 or error_mean.shape != init_mean.shape:
        raise PopulationError(f"means of shapes {init_mean.shape} and {error_mean.shape} "
                              "are not two n-vectors")
    L_init = _cov_factor(init_cov, "init_cov", n)
    L_err = _cov_factor(error_cov, "error_cov", n)
    z = np.empty((N, 2 * n))
    for row, rng in zip(z, _agent_rngs(seed, range(N), _SAMPLING)):
        rng.standard_normal(out=row)
    # the stacked products give each agent the bits of L @ its own draws,
    # which z @ L.T does not
    x0 = init_mean + (L_init @ z[:, :n, None])[..., 0]
    E = error_mean + (L_err @ z[:, n:, None])[..., 0]
    return list(zip(x0, E))


@dataclass
class OffsetFamilyLaw(FeedbackLaw):
    """Affine laws sharing P1 but with per-agent offsets g_i = g + Mg E_i,
    so agent i's control adds error_gain E_i, error_gain = -R^-1 B' Mg.

    errors holds the E_i of the agents in order; simulate steps every agent
    in one pass, which keeps heterogeneous-error simulations linear in N.
    """

    Mg: MatrixPath
    errors: np.ndarray

    def __post_init__(self):
        self.errors = np.asarray(self.errors, dtype=float)

    @cached_property
    def error_gain(self) -> np.ndarray:
        """-R^-1 B' Mg at every node, (K+1, d, n)."""
        return -(self.params.RinvBt @ self.Mg.values)


def agent_sum(a):
    """Sum over the agent axis of a (..., N, n) array, bitwise a.sum(axis=-2).

    For n > 1 numpy's sum adds the agents one after the other, and einsum
    gives the same bits about four times faster (at N = 2000, numpy 2.4,
    2-vCPU x86-64).  For n = 1 the agent axis is contiguous and numpy sums
    it pairwise, which einsum does not, so that case keeps numpy's sum.
    """
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
    times I, or a finite (n, n) matrix (PopulationError otherwise)."""
    n = params.n
    try:
        M = params.D if D is None else np.asarray(D, dtype=float)
    except (TypeError, ValueError):   # not numbers, or rows of different lengths
        M = None
    if M is None or M.shape not in ((), (n, n)) or not np.isfinite(M).all():
        shape = "" if M is None else f" of shape {M.shape}"
        raise PopulationError(f"D{shape} is not a finite scalar or ({n}, {n}) matrix, on n = {n}")
    return np.eye(n) * M if M.ndim == 0 else M


def _noise_blocks(seed, ids, K, n):
    """Dynamics noise of the agents ids for steps 0..K-1: per block of
    m <= _NOISE_BLOCK steps, an (N, m, n) view of one agent-major buffer
    whose row i agent ids[i]'s stream, kept for the run, fills with its
    next m n normals, the numbers of one (K, n) draw.  (A node-major buffer
    reads contiguously, but filling it scatters each stream's draws.)"""
    rngs = _agent_rngs(seed, ids, _DYNAMICS)
    noise = np.empty((len(rngs), min(_NOISE_BLOCK, K), n))
    for k0 in range(0, K, _NOISE_BLOCK):
        m = min(_NOISE_BLOCK, K - k0)
        for row, rng in enumerate(rngs):
            rng.standard_normal(out=noise[row, :m])
        yield noise[:, :m]


@np.errstate(over="ignore", invalid="ignore")
def _step_agents(law, x0, ids, coupling, seed, D, paths=False):
    """Euler-Maruyama run of the agents ids from the rows of x0 (N, n)
    under the affine law and its parameters (see the module docstring).
    Returns the node sums (K+1, n) and (K+1, d) of the states and controls,
    the coupling (mf_x, mf_u) the run stepped with (the prescribed node
    arrays coupling or, for coupling None, the population means) and, for
    paths True, the paths xs (K+1, N, n) and us (K+1, N, d), else None; or
    None alone where a run without paths cannot show its states finite.  D
    is as in _noise_matrix.

    Agent i's step k is x -> T_k x + f_k + dt B W_k E_i + sqrt(dt) D n_ik,
    with T_k = I + dt agent_generator(P1)_k and f_k = dt (B offset_k +
    C mf_x_k + F mf_u_k) the same for every agent, W the error gain and
    n_ik the agent's noise (_noise_blocks).  Per block of _NOISE_BLOCK
    steps from node k0, ode._up_sweep takes the block's T_k up once, and
    every scan of the block is an ode._scan of columns against those levels:

    - under empirical coupling the mean state steps by
      m -> M_k m + dt (B+F) vbar_k + sqrt(dt) D nbar_k, M_k = I + dt
      mf_generator(P1)_k swept up once too, vbar and nbar the agents' mean
      offset and noise: the scan of the columns [M_k0 | b_k] (the first n
      columns zero after the first step) gives [P_j | C_j], the block's
      mf_x is P_j m_k0 + C_j, and mf_u = gain mf_x + vbar, before any
      agent is stepped;
    - the scan of the columns [T_k0 | f_k | dt B W_k] (likewise) gives
      [P_j | c_j | CE_j], so agent i's state at node k0 + j + 1 is
      z_i [P_j | c_j | CE_j]' plus its noise part, with z_i = [x_k0 | 1 |
      E_i], and its control there is z_i U_j, U_j = [P_j | c_j | CE_j]'
      gain' + [0 | offset | W]' at that node, plus the noise part times
      gain';
    - the step is affine, so the block's node sums are (sum_i z_i)
      [P_j | c_j | CE_j]' and (sum_i z_i) U_j, plus, under noise, the scan
      of the one column sqrt(dt) D sum_i n_ik and its product with gain'.

    Without paths the next block starts from the summed row [x_sum_k1 | N |
    sum_i E_i] (a lone agent from its own row), and no agent's state is
    formed.  With |z_i| <= zmax, a block's states are at most bound = zmax
    max_j |[P_j | c_j | CE_j]| plus a bound on their noise part, the run
    returns None once bound reaches _STATE_BOUND, and else the next block
    takes zmax = max(zmax, bound).

    With paths, each block's states and controls are written out node by
    node, for all agents or a chunk at once, their noise part the scan of
    the chunk's noise columns sqrt(dt) D n_k; the next block starts from
    the rows of the last node.  No step map is inverted, and no product of
    a written block mixes two agents' rows or columns, so under prescribed
    coupling an agent's bits do not depend on the others, and a run with
    paths True against an earlier run's coupling gives its paths bit for
    bit.  A non-finite state raises IntegrationBlowupError naming the first
    such node and its first agent.  Under empirical coupling a mean of x0
    that overflows raises it at node 0; otherwise a node sum that overflows
    on finite states is returned as it is.
    """
    lone = len(x0) == 1
    if lone:
        # a lone agent steps beside a copy of itself: numpy multiplies a
        # one-row operand by other BLAS kernels (gemv), whose bits differ
        x0, ids = np.repeat(x0, 2, axis=0), [ids[0]] * 2
    N, n = x0.shape
    params, grid = law.params, law.grid
    K, dt, d = grid.steps, grid.dt, params.d
    B, C, F = params.B, params.C, params.F
    D = _noise_matrix(params, D)
    noisy = not np.allclose(D, 0.0)
    if noisy:
        blocks = _noise_blocks(seed, ids, K, n)
        sqdtD = np.sqrt(dt) * D
    # a noisy block's paths scan the agents' noise in _NOISE_CHUNKS near-equal
    # chunks of two agents or more, whose scan transients stay near the buffer's size
    chunks = min(_NOISE_CHUNKS, N // 2) if noisy else 1
    edges = [N * j // chunks for j in range(chunks + 1)]
    gain, offset, W = law.gain, law.offset, law.error_gain
    e = 0 if W is None else n
    P1 = law.P1.values
    eye = np.eye(n)
    # the rows [x | 1 | E_i] of the agents, updated to each block's x_k0 with paths
    Z = np.empty((N, n + 1 + e))
    Z[:, :n] = x0
    Z[:, n] = 1.0
    if W is not None:
        Z[:, n + 1:] = E = law.errors[np.asarray(ids)]
    if coupling is None:
        vbar = offset if W is None else offset + (agent_sum(E) / N) @ np.swapaxes(W, 1, 2)
        mf_x, mf_u = np.empty((K + 1, n)), np.empty((K + 1, d))
        mf_x[0] = agent_sum(x0) / N
        if not np.isfinite(mf_x[0]).all():
            raise _mean_overflow(grid, 0)
    else:
        mf_x, mf_u = coupling
    # the lone agent's node sums are its own path
    node_sums = (lambda a: a[..., 0, :]) if lone else agent_sum
    if paths:
        xs, us = np.empty((K + 1, N, n)), np.empty((K + 1, N, d))
        xs[0] = x0
    x_sum, u_sum = np.empty((K + 1, n)), np.empty((K + 1, d))
    x_sum[0] = node_sums(x0)
    z_sum, zmax = node_sums(Z), np.abs(Z).max()
    for k0 in range(0, K, _NOISE_BLOCK):
        k1 = min(k0 + _NOISE_BLOCK, K)
        m = k1 - k0
        hi = k1 + 1 if k1 == K else k1   # nodes k0..hi-1 take their controls here
        levels = _up_sweep(eye + dt * agent_generator(params, P1[k0:k1]))
        if noisy:
            noise = next(blocks)
            noise_sum = noise.sum(axis=0)
        if coupling is None:
            mean_levels = _up_sweep(eye + dt * mf_generator(params, P1[k0:k1]))
            cols = np.zeros((m, n, n + 1))
            cols[0, :, :n] = mean_levels[0][0]
            cols[:, :, n] = dt * (vbar[k0:k1] @ (B + F).T)
            if noisy:
                cols[:, :, n] += (noise_sum / N) @ sqdtD.T
            PC = _scan(mean_levels, cols)
            mf_x[k0 + 1:k1 + 1] = PC[:, :, :n] @ mf_x[k0] + PC[:, :, n]
            mf_u[k0:hi] = (gain[k0:hi] @ mf_x[k0:hi, :, None])[..., 0] + vbar[k0:hi]
        # [P_j | c_j | CE_j]' from the block's columns [T_k0 | f_k | dt B W_k]
        cols = np.zeros((m, n, n + 1 + e))
        cols[0, :, :n] = levels[0][0]
        cols[:, :, n] = dt * (offset[k0:k1] @ B.T + mf_x[k0:k1] @ C.T + mf_u[k0:k1] @ F.T)
        if W is not None:
            cols[:, :, n + 1:] = dt * (B @ W[k0:k1])
        PT = np.ascontiguousarray(np.swapaxes(_scan(levels, cols), 1, 2))
        # [1 | E_i] takes the control terms [offset | W]', and x its gain'
        gainT = np.ascontiguousarray(np.swapaxes(gain[k0 + 1:hi], 1, 2))
        U = np.zeros((hi - k0, n + 1 + e, d))
        U[0, :n] = gain[k0].T
        U[1:] = PT[:hi - k0 - 1] @ gainT
        U[:, n] += offset[k0:hi]
        if W is not None:
            U[:, n + 1:] += np.swapaxes(W[k0:hi], 1, 2)
        x_sum[k0 + 1:k1 + 1] = z_sum @ PT
        u_sum[k0:hi] = z_sum @ U
        if noisy:
            dx = _scan(levels, ((noise[0] if lone else noise_sum) @ sqdtD.T)[..., None])[..., 0]
            x_sum[k0 + 1:k1 + 1] += dx
            u_sum[k0 + 1:hi] += (dx[:hi - k0 - 1, None] @ gainT)[:, 0]
        if not paths:
            # the noise part is at most m |T|^(m-1) |sqrt(dt) D| max |n|
            # (infinity norms, |T| >= 1 the block's largest)
            bound = zmax * np.abs(PT).sum(axis=1).max()
            if noisy:
                tau = np.maximum(1.0, np.abs(levels[0]).sum(axis=2).max())
                bound += (m * tau ** (m - 1) * np.abs(sqdtD).sum(axis=1).max()
                          * max(noise.max(), -noise.min()))
            if not bound < _STATE_BOUND:
                return None
            zmax = max(zmax, bound)
            z_sum[:n] = x_sum[k1]
            continue
        xb, ub = xs[k0 + 1:k1 + 1], us[k0:hi]
        for a, b in zip(edges, edges[1:]):
            x, u = xb[:, a:b], ub[:, a:b]
            np.matmul(Z[a:b], PT, out=x)
            np.matmul(Z[a:b], U, out=u)
            if noisy:
                cols = sqdtD @ noise[a:b].transpose(1, 2, 0)
                # a product with I moves the agents from columns to rows:
                # exact, and faster than numpy's strided copy
                dx = np.swapaxes(_scan(levels, cols), 1, 2) @ eye
                x += dx
                u[1:] += dx[:hi - k0 - 1] @ gainT
                del dx   # before the next chunk's scan
        # a non-finite state makes its node's sum non-finite; a sum can also
        # overflow on finite states, which the node's rows tell apart
        for j in np.flatnonzero(~np.isfinite(agent_sum(xb)).all(axis=1)):
            bad = np.flatnonzero(~np.isfinite(xb[j]).all(axis=1))
            if len(bad):
                k = k0 + 1 + int(j)
                raise IntegrationBlowupError(f"agent {ids[bad[0]]} state non-finite at node {k}",
                                             node=k, time=grid.times[k])
        Z[:, :n] = xb[m - 1]
        z_sum = node_sums(Z)
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
    _agent_rows).  law is an affine law (see the module docstring) and
    carries its grid, on which the run takes place (grid, if given, must be
    the same).  mf_coupling is "empirical" (start-of-step population
    averages) or a (z_path, ubar_path) pair of prescribed mean-field paths
    on that grid (PopulationError otherwise).  D overrides the noise matrix
    (see _noise_matrix).  The agents are stepped a block of nodes at a time
    by prefix scans (see _step_agents), and the result keeps the node
    arrays, building the paths when they are read.  A run whose norm bound
    cannot show its states finite is redone once with paths, whose node
    sums and paths it keeps.  params must be the law's parameter set
    (ParamsMismatchError otherwise).  A non-finite state, or a node mean of
    finite states or controls that overflows, raises IntegrationBlowupError
    naming the node.
    """
    require_same_params(params, law, "law")
    paths = _prescribed(params, mf_coupling)
    grid = require_same_grid(law if grid is None else grid, law, *paths)
    x0, errors = _agent_rows(params, population, law)
    N = len(x0)
    args = (law, x0, range(N), tuple(p.values for p in paths) or None, seed, D)
    x_sum, u_sum, coupling, built = _step_agents(*args) or _step_agents(*args, paths=True)
    # _step_agents raised on a non-finite state (and so on a non-finite
    # control before node K): a non-finite node sum here is an overflow
    finite = np.isfinite(x_sum).all(axis=1)
    bad = np.flatnonzero(~(finite & np.isfinite(u_sum).all(axis=1)))
    if len(bad):
        raise _mean_overflow(grid, bad[0], "states" if not finite[bad[0]] else "controls")
    res = PopulationResult(params=params, grid=grid, errors=errors,
                           x_N=VectorPath(grid, x_sum / N), u_N=VectorPath(grid, u_sum / N),
                           coupling=coupling, law=law, x0=x0, seed=seed, D=D)
    if built is not None:
        res._paths = built   # the fallback run's, the rerun's bit for bit
    return res

