"""Finite-N agent population simulation (Euler-Maruyama).

Each agent owns two dedicated RNG streams derived from (seed, agent_id): one
for initial sampling and one for dynamics noise.  This makes every result
independent of iteration order and thread count, and lets a single agent's
trajectory be replayed bit-for-bit against different mean-field inputs.
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

    def offsets_at(self, k):
        return self.g_base[k] + self.errors @ self.Mg[k].T

    def at_node_batch(self, x, k):
        return control(self.params, self.P1[k], x, self.offsets_at(k))


def _normalize_laws(law_assignment, N):
    """Group agents by the law they play; returns list of (law, agent index array)."""
    if callable(law_assignment) and not hasattr(law_assignment, "at_node"):
        laws = [law_assignment(i) for i in range(N)]
    elif isinstance(law_assignment, (list, tuple)):
        if len(law_assignment) != N:
            raise ValueError(f"need one law per agent: {N} expected, got {len(law_assignment)}")
        laws = list(law_assignment)
    else:
        laws = [law_assignment] * N
    groups = {}
    for i, law in enumerate(laws):
        groups.setdefault(id(law), (law, []))[1].append(i)
    return [(law, np.asarray(idx)) for law, idx in groups.values()]


def noise_matrix(params: SystemParams, D=None) -> np.ndarray:
    """Noise matrix of the dynamics: params.D unless D overrides it, a
    scalar D standing for D times the identity."""
    if D is None:
        D = params.D
    return np.eye(params.n) * D if np.ndim(D) == 0 else np.asarray(D, dtype=float)


def _draw_noise(N, steps, n, seed):
    noise = np.empty((N, steps, n))
    for i in range(N):
        noise[i] = _agent_rng(seed, i, _DYNAMICS).standard_normal((steps, n))
    return noise


def simulate(
    params: SystemParams,
    population,
    law_assignment,
    mf_coupling="empirical",
    grid: TimeGrid | None = None,
    seed: int = 0,
    D=None,
    noise=None,
) -> PopulationResult:
    """Euler-Maruyama integration of the N-agent system.

    mf_coupling is "empirical" (start-of-step population averages) or a
    (z_path, ubar_path) pair of prescribed mean-field paths.  D overrides the
    noise matrix (scalar = multiple of identity); noise, if given, must be a
    (N, steps, n) array of standard normal increments.
    """
    if grid is None:
        grid = params.default_grid()
    N = len(population)
    n = params.n
    K, dt = grid.steps, grid.dt
    sqdt = np.sqrt(dt)
    D = noise_matrix(params, D)
    prescribed = None
    if mf_coupling != "empirical":
        z_path, ubar_path = mf_coupling
        require_same_grid(z_path, ubar_path)
        prescribed = (z_path.values, ubar_path.values)
    batch_law = law_assignment if hasattr(law_assignment, "at_node_batch") else None
    groups = None if batch_law else _normalize_laws(law_assignment, N)
    if noise is None and not np.allclose(D, 0.0):
        noise = _draw_noise(N, K, n, seed)

    x = np.array([p[0] for p in population], dtype=float)
    xs = np.empty((K + 1, N, n))
    us = np.empty((K + 1, N, params.d))
    drifts = np.empty((K + 1, N, n))
    for k in range(K + 1):
        if batch_law is not None:
            u = batch_law.at_node_batch(x, k)
        else:
            u = np.empty((N, params.d))
            for law, idx in groups:
                u[idx] = law.at_node(x[idx], k)
        if prescribed is None:
            mf_x = np.mean(x, axis=0)
            mf_u = np.mean(u, axis=0)
        else:
            mf_x, mf_u = prescribed[0][k], prescribed[1][k]
        drift = x @ params.A.T + u @ params.B.T + mf_x @ params.C.T + mf_u @ params.F.T
        xs[k], us[k], drifts[k] = x, u, drift
        if k < K:
            x = x + drift * dt
            if noise is not None:
                x = x + (noise[:, k, :] @ D.T) * sqdt
            if not np.all(np.isfinite(x)):
                bad = int(np.argwhere(~np.all(np.isfinite(x), axis=1))[0, 0])
                raise IntegrationBlowupError(
                    f"agent {bad} state non-finite at node {k + 1}", node=k + 1,
                    time=grid.times[k + 1],
                )
    errors = np.array([p[1] for p in population], dtype=float)
    x_N = VectorPath(grid, np.mean(xs, axis=1))
    u_N = VectorPath(grid, np.mean(us, axis=1))
    return PopulationResult(grid=grid, xs=xs, us=us, drifts=drifts, errors=errors,
                            x_N=x_N, u_N=u_N)


def replay_agent(params, trace: AgentTrace, law, z_path, ubar_path, grid, seed, D=None):
    """Re-run one agent with a different law against prescribed mean-field
    paths, reusing the agent's own dynamics noise stream."""
    require_same_grid(z_path, ubar_path)
    K, dt = grid.steps, grid.dt
    sqdt = np.sqrt(dt)
    D = noise_matrix(params, D)
    noisy = not np.allclose(D, 0.0)
    incr = _agent_rng(seed, trace.agent_id, _DYNAMICS).standard_normal((K, params.n)) if noisy else None
    x = trace.x.initial.copy()
    xs = np.empty((K + 1, params.n))
    us = np.empty((K + 1, params.d))
    for k in range(K + 1):
        u = law.at_node(x[None, :], k)[0]
        xs[k], us[k] = x, u
        if k < K:
            drift = params.A @ x + params.B @ u + params.C @ z_path[k] + params.F @ ubar_path[k]
            x = x + drift * dt
            if noisy:
                x = x + (D @ incr[k]) * sqdt
    return VectorPath(grid, xs), VectorPath(grid, us)


def empirical_mf(traces):
    """Exact arithmetic means of the agents' state and control paths."""
    if not traces:
        raise ValueError("need at least one trace")
    grid = require_same_grid(*[t.x for t in traces])
    x_N = np.mean(np.stack([t.x.values for t in traces]), axis=0)
    u_N = np.mean(np.stack([t.u.values for t in traces]), axis=0)
    return {"x_N": VectorPath(grid, x_N), "u_N": VectorPath(grid, u_N)}
