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
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError
from .grid import TimeGrid, VectorPath, require_same_grid
from .params import SystemParams
from .riccati import control

_SAMPLING = 0
_DYNAMICS = 1


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
    """Realized path of one agent, with the drift stored for validation."""

    agent_id: int
    E_i: np.ndarray
    x: VectorPath
    u: VectorPath
    drift: VectorPath


@dataclass
class PopulationResult:
    """Realized paths of N agents; entry [k, i] of xs, us and drifts is
    agent i at node k."""

    grid: TimeGrid
    xs: np.ndarray       # (K+1, N, n)
    us: np.ndarray       # (K+1, N, d)
    drifts: np.ndarray   # (K+1, N, n)
    errors: np.ndarray   # (N, n) initial-information errors
    x_N: VectorPath
    u_N: VectorPath

    def trace(self, i: int) -> AgentTrace:
        """Agent i's paths, as views into the result arrays."""
        return AgentTrace(
            agent_id=i,
            E_i=self.errors[i],
            x=VectorPath(self.grid, self.xs[:, i, :]),
            u=VectorPath(self.grid, self.us[:, i, :]),
            drift=VectorPath(self.grid, self.drifts[:, i, :]),
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

    @property
    def grid(self) -> TimeGrid:
        return self.g_base.grid

    def at_node(self, x, k):
        """Controls (N, d) of the agents' states x (N, n) at grid node k."""
        return control(self.params, self.P1[k], x,
                       self.g_base[k] + self.errors @ self.Mg[k].T)


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
    """
    x = np.array(x0, dtype=float)
    N, n = x.shape
    K, dt = grid.steps, grid.dt
    sqdt = np.sqrt(dt)
    ids = range(N) if ids is None else ids
    D = params.D if D is None else D
    D = np.eye(n) * D if np.ndim(D) == 0 else np.asarray(D, dtype=float)
    noise = None
    if not np.allclose(D, 0.0):
        noise = np.empty((N, K, n))
        for row, i in enumerate(ids):
            noise[row] = _agent_rng(seed, int(i), _DYNAMICS).standard_normal((K, n))
    for k in range(K + 1):
        u = control_at(x, k)
        if coupling is None:
            mf_x, mf_u = x.sum(axis=0) / N, u.sum(axis=0) / N
        else:
            mf_x, mf_u = coupling[0][k], coupling[1][k]
        drift = x @ params.A.T + u @ params.B.T + mf_x @ params.C.T + mf_u @ params.F.T
        yield k, x, u, drift, mf_x
        if k < K:
            x = x + drift * dt
            if noise is not None:
                x = x + (noise[:, k, :] @ D.T) * sqdt
            if not np.all(np.isfinite(x)):
                bad = ids[np.argwhere(~np.all(np.isfinite(x), axis=1))[0, 0]]
                raise IntegrationBlowupError(
                    f"agent {bad} state non-finite at node {k + 1}", node=k + 1,
                    time=grid.times[k + 1],
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
    drifts = np.empty((K + 1, N, params.n))
    coupling = tuple(p.values for p in paths) or None
    for k, x, u, drift, _ in euler_maruyama(params, x0, grid, law.at_node, coupling,
                                           seed, D):
        xs[k], us[k], drifts[k] = x, u, drift
    errors = np.array([p[1] for p in population], dtype=float)
    x_N = VectorPath(grid, np.mean(xs, axis=1))
    u_N = VectorPath(grid, np.mean(us, axis=1))
    return PopulationResult(grid=grid, xs=xs, us=us, drifts=drifts, errors=errors,
                            x_N=x_N, u_N=u_N)


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
