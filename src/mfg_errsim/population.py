"""Finite-N agent population simulation (Euler-Maruyama).

Each agent owns two dedicated RNG streams derived from (seed, agent_id): one
for initial sampling and one for dynamics noise.  This makes every result
independent of iteration order and thread count, and lets a single agent's
trajectory be replayed bit-for-bit against different mean-field inputs.

Every simulator in the package steps through ``euler_maruyama``.  A law is
anything with a ``grid`` and ``at_node(x, k)``, the controls of the states
x (N, n) at node k of that grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IntegrationBlowupError
from .grid import TimeGrid, VectorPath, require_same_grid
from .params import SystemParams
from .riccati import control

_SAMPLING = 0
_DYNAMICS = 1
# nodes of dynamics noise drawn per refill of euler_maruyama's noise buffer
_NOISE_BLOCK = 128


def _agent_rng(seed: int, agent_id: int, purpose: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, agent_id))
    return np.random.Generator(np.random.PCG64(ss))


def _cov_factor(cov, name):
    """Matrix L with L L' = cov; tolerates PSD-singular covariances."""
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    if np.allclose(cov, 0.0):
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(cov)
        if np.min(w) < -1e-12:
            raise ValueError(f"{name} must be positive semidefinite") from None
        return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass
class AgentTrace:
    """Realized path of one agent, as views into its PopulationResult.

    The drift, kept for validation, is read from the result's drifts, which
    are derived from the states and controls on first read.
    """

    agent_id: int
    E_i: np.ndarray
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

    drifts is not stored by the run: its first read derives every node's
    drift A x + B u + C mf_x + F mf_u from xs[k], us[k] and the run's
    coupling (the node means under empirical coupling, else node k of the
    prescribed (z, ubar) arrays, kept by reference), bit for bit the drift
    euler_maruyama stepped with, and caches it.
    """

    params: SystemParams
    grid: TimeGrid
    xs: np.ndarray       # (K+1, N, n)
    us: np.ndarray       # (K+1, N, d)
    errors: np.ndarray   # (N, n) initial-information errors
    x_N: VectorPath
    u_N: VectorPath
    coupling: tuple | None = field(default=None, repr=False)

    @cached_property
    def drifts(self) -> np.ndarray:
        """(K+1, N, n) drift of every agent at every node."""
        params, N = self.params, self.xs.shape[1]
        At, Bt = (np.ascontiguousarray(M.T) for M in (params.A, params.B))
        drifts = np.empty_like(self.xs)
        for k, (x, u) in enumerate(zip(self.xs, self.us)):
            if self.coupling is None:
                mf_x, mf_u = agent_sum(x) / N, agent_sum(u) / N
            else:
                mf_x, mf_u = self.coupling[0][k], self.coupling[1][k]
            drifts[k] = _drift(params, At, Bt, x, u, mf_x, mf_u)
        return drifts

    def trace(self, i: int) -> AgentTrace:
        """Agent i's paths, as views into the result arrays."""
        return AgentTrace(
            agent_id=i,
            E_i=self.errors[i],
            x=VectorPath(self.grid, self.xs[:, i, :]),
            u=VectorPath(self.grid, self.us[:, i, :]),
            result=self,
        )

    @property
    def traces(self) -> Sequence:
        """Every agent's trace, in agent order."""
        return _Traces(self)


class _Traces(Sequence):
    """The traces of a PopulationResult, each built when it is indexed."""

    def __init__(self, result):
        self._result = result

    def __len__(self):
        return self._result.xs.shape[1]

    def __getitem__(self, i):
        return self._result.trace(range(len(self))[i])


def sample_population(N, init_mean, init_cov, error_mean, error_cov, seed):
    """Draw (x0, E_i) pairs for N agents from per-agent RNG streams."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    init_mean = np.atleast_1d(np.asarray(init_mean, dtype=float))
    error_mean = np.atleast_1d(np.asarray(error_mean, dtype=float))
    n = init_mean.shape[0]
    L_init = _cov_factor(init_cov, "init_cov")
    L_err = _cov_factor(error_cov, "error_cov")
    out = []
    for i in range(N):
        rng = _agent_rng(seed, i, _SAMPLING)
        x0 = init_mean + L_init @ rng.standard_normal(n)
        E_i = error_mean + L_err @ rng.standard_normal(n)
        out.append((x0, E_i))
    return out


class OffsetFamilyLaw:
    """Affine laws sharing P1 but with per-agent offsets g_i = g + Mg E_i.

    Evaluates the whole population's controls in one vectorized call, which
    keeps heterogeneous-error simulations linear in N.
    """

    def __init__(self, params, P1, g_base, Mg, errors):
        self.params = params
        self.P1 = P1
        self.g_base = g_base
        self.Mg = Mg
        self.errors = np.asarray(errors, dtype=float)
        # Mg[k]' at every node, contiguous (see euler_maruyama)
        self._MgT = np.ascontiguousarray(np.swapaxes(Mg.values, 1, 2))

    @property
    def grid(self) -> TimeGrid:
        return self.g_base.grid

    def at_node(self, x, k):
        """Controls (N, d) of the agents' states x (N, n) at grid node k."""
        g = self.errors @ self._MgT[k]
        g += self.g_base[k]
        return control(self.params, self.P1[k], x, g)


def agent_sum(a):
    """Sum over the agent axis of a (..., N, n) array, bitwise a.sum(axis=-2).

    For n > 1 numpy's sum adds the agents one after the other, and einsum
    gives the same bits about four times faster (at N = 2000; see
    euler_maruyama).  For n = 1 the agent axis is contiguous and numpy sums
    it pairwise, which einsum does not, so that case keeps numpy's sum.
    """
    if a.shape[-1] == 1:
        return a.sum(axis=-2)
    return np.einsum("...ij->...j", a)


def _drift(params, At, Bt, x, u, mf_x, mf_u):
    """Drifts A x + B u + C mf_x + F mf_u of the agents' rows of x and u,
    accumulated in that order; At and Bt are contiguous A' and B' (see
    euler_maruyama)."""
    drift = x @ At
    drift += u @ Bt
    drift += mf_x @ params.C.T
    drift += mf_u @ params.F.T
    return drift


def euler_maruyama(params: SystemParams, x0, grid: TimeGrid, control_at,
                   coupling=None, seed: int = 0, D=None, ids=None):
    """Euler-Maruyama integration of agents started at the rows of x0.

    Yields (k, x, u, drift, mf_x) at every node k = 0..K, where u =
    control_at(x, k) are the agents' controls, drift = A x + B u + C mf_x +
    F mf_u, and (mf_x, mf_u) are the start-of-step population averages when
    coupling is None, else node k of the pair of prescribed node arrays
    coupling = (z, ubar).  Row i of x0 is agent ids[i] (default i), whose
    own dynamics noise stream drives it.  D overrides the noise matrix
    params.D, a scalar D standing for D times the identity.  Raises
    IntegrationBlowupError at the first non-finite state.

    Each node costs a handful of small (N, n) numpy calls, so their operand
    layout decides the speed.  Every choice below gives the same bits as
    plain transposed views, sums and a per-step scan of the states (timings
    at N = K = 2000, numpy 2.4, 2-vCPU x86-64):

    - the noise is drawn in blocks of _NOISE_BLOCK = B nodes into one
      agent-major (N, B, n) buffer, N B n floats whatever K is: every B
      nodes each agent's stream, kept for the whole run, draws its next
      B n normals straight into its own row, and node k reads a strided
      (N, n) slice.  A stream's consecutive draws continue it, so the
      numbers are those of one (K, n) draw per agent, and the bits are
      unchanged.  B = 128, 256 and 512 fill and read in the same time
      within noise (0.21-0.23 s), so B is the smallest, 4 MB at N = 2000
      and n = 2.  A node-major buffer reads contiguously, but filling it
      scatters each agent's draws over the rows, which costs more than the
      reads save;
    - the right operands A', B' and D' of the (N, n) products are
      contiguous copies, multiplied about 2.5 times faster than transposed
      views, with the same bits for N > 1.  The two (n,) mean-field
      products, mf_x C' and mf_u F', keep the views: a one-row product goes
      through another BLAS kernel, where a contiguous operand changes the
      bits;
    - the node sums come from agent_sum, and _drift, which
      PopulationResult.drifts also calls, accumulates the drift in place in
      the order A x + B u + C mf_x + F mf_u;
    - a state is checked through its node sum: a finite sum means every
      entry is finite, and only a non-finite one (a blow-up, or an
      overflow of finite states) triggers the per-agent scan that names
      the first bad agent.  The check runs before control_at sees the
      state.
    """
    x = np.array(x0, dtype=float)
    N, n = x.shape
    K, dt = grid.steps, grid.dt
    sqdt = np.sqrt(dt)
    ids = range(N) if ids is None else ids
    D = params.D if D is None else D
    D = np.eye(n) * D if np.ndim(D) == 0 else np.asarray(D, dtype=float)
    At, Bt, Dt = (np.ascontiguousarray(M.T) for M in (params.A, params.B, D))
    rngs = None
    if not np.allclose(D, 0.0):
        rngs = [_agent_rng(seed, int(i), _DYNAMICS) for i in ids]
        noise = np.empty((N, min(_NOISE_BLOCK, K), n))
    x_sum = agent_sum(x)
    for k in range(K + 1):
        u = control_at(x, k)
        if coupling is None:
            mf_x, mf_u = x_sum / N, agent_sum(u) / N
        else:
            mf_x, mf_u = coupling[0][k], coupling[1][k]
        drift = _drift(params, At, Bt, x, u, mf_x, mf_u)
        yield k, x, u, drift, mf_x
        if k < K:
            x_next = drift * dt
            x_next += x
            if rngs is not None:
                j = k % _NOISE_BLOCK
                if j == 0:
                    m = min(_NOISE_BLOCK, K - k)
                    for row, rng in enumerate(rngs):
                        rng.standard_normal(out=noise[row, :m])
                dW = noise[:, j] @ Dt
                dW *= sqdt
                x_next += dW
            x = x_next
            x_sum = agent_sum(x)
            if not np.isfinite(x_sum).all():
                bad = np.argwhere(~np.all(np.isfinite(x), axis=1))
                if len(bad):
                    raise IntegrationBlowupError(
                        f"agent {ids[bad[0, 0]]} state non-finite at node {k + 1}",
                        node=k + 1, time=grid.times[k + 1],
                    )


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

    law answers at_node(x, k) for the states (N, n) of every agent and
    carries its grid, on which the run takes place (grid, if given, must
    be the same).  mf_coupling is "empirical" (start-of-step population
    averages) or a (z_path, ubar_path) pair of prescribed mean-field paths
    on that grid.  D overrides the noise matrix (see euler_maruyama).
    """
    paths = () if mf_coupling == "empirical" else tuple(mf_coupling)
    grid = require_same_grid(law if grid is None else grid, law, *paths)
    N = len(population)
    K = grid.steps
    x0 = [p[0] for p in population]
    xs = np.empty((K + 1, N, params.n))
    us = np.empty((K + 1, N, params.d))
    coupling = tuple(p.values for p in paths) or None
    for k, x, u, _, _ in euler_maruyama(params, x0, grid, law.at_node, coupling,
                                        seed, D):
        xs[k], us[k] = x, u
    errors = np.array([p[1] for p in population], dtype=float)
    x_N = VectorPath(grid, agent_sum(xs) / N)
    u_N = VectorPath(grid, agent_sum(us) / N)
    return PopulationResult(params=params, grid=grid, xs=xs, us=us, errors=errors,
                            x_N=x_N, u_N=u_N, coupling=coupling)


def replay_agent(params, trace: AgentTrace, law, z_path, ubar_path, grid, seed, D=None):
    """Re-run one agent with a different law against prescribed mean-field
    paths, reusing the agent's own dynamics noise stream."""
    grid = require_same_grid(grid, law, z_path, ubar_path)
    xs = np.empty((grid.steps + 1, params.n))
    us = np.empty((grid.steps + 1, params.d))
    steps = euler_maruyama(params, trace.x.initial[None, :], grid, law.at_node,
                           (z_path.values, ubar_path.values), seed, D,
                           ids=[trace.agent_id])
    for k, x, u, _, _ in steps:
        xs[k], us[k] = x[0], u[0]
    return VectorPath(grid, xs), VectorPath(grid, us)
