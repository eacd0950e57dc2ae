"""Deterministic continuum-limit trajectories under erroneous information.

For noiseless validation and for the correction pipeline we need the exact
(N -> infinity, D = 0) trajectories rather than Monte Carlo estimates:

* z_c     -- correct-information equilibrium mean field,
* z_i     -- tagged agent's (erroneous) predicted mean field,
* g_i     -- the offset the tagged agent actually uses,
* zbar    -- population-average predicted mean field (error average Ebar),
* g_bar   -- population-average offset,
* z_A     -- the mean field actually realized by the population,
* x_i     -- the tagged agent's expected trajectory inside that population.

solve_limiting_batch solves any number of (E_i, Ebar) scenarios together:
each stage above is one rk4_affine scan with one column per distinct run,
so the trajectories are direct solves of their ODEs on the Riccati
bundle's grid, independent of the linear deviation maps they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanField
from .grid import MatrixPath, VectorPath
from .ode import rk4_affine
from .riccati import (
    RiccatiBundle,
    agent_generator,
    control,
    mean_field_path,
    solve_tracking_offset,
)


@dataclass
class LimitingRun:
    """All deterministic limit trajectories for one (E_i, Ebar) scenario."""

    bundle: RiccatiBundle
    E_i: np.ndarray
    E_bar: np.ndarray
    z_c: MeanField       # correct-information equilibrium
    mf_i: MeanField      # tagged agent's prediction
    g_i: VectorPath
    zbar: MeanField      # average prediction across the population
    g_bar: VectorPath
    z_A: VectorPath      # realized mean field
    ubar_A: VectorPath   # realized average control
    x_i: VectorPath      # tagged agent's expected trajectory
    u_i: VectorPath

    @property
    def grid(self):
        return self.bundle.grid

    def observable(self) -> VectorPath:
        """Exact drift residual Ob = C z_A + F ubar_A seen by any agent."""
        params = self.bundle.params
        vals = (
            self.z_A.values @ params.C.T + self.ubar_A.values @ params.F.T
        )
        return VectorPath(self.grid, vals)


def planned_offset(bundle: RiccatiBundle, mf: MeanField) -> VectorPath:
    """Tracking offset an agent derives from its own mean-field prediction."""
    return solve_tracking_offset(bundle.params, bundle.P1, mf.z, mf.ubar, bundle.grid)


def _distinct(keys):
    """Column of each key among the distinct keys, numbered in order of
    first appearance, and the position of each distinct key's first
    appearance."""
    cols, first = {}, []
    for j, key in enumerate(keys):
        if key not in cols:
            cols[key] = len(first)
            first.append(j)
    return [cols[key] for key in keys], first


def solve_limiting_batch(bundle: RiccatiBundle, z0, pairs, x0=None) -> list[LimitingRun]:
    """The deterministic scenarios of a tagged agent for S error pairs.

    pairs lists (E_i, E_bar): the tagged agent predicts from z0 + E_i while
    the population average prediction starts at z0 + E_bar; z0 is the true
    initial mean field, and x0, the agent's true initial state in every
    run, defaults to z0.

    Four scans, one column per distinct run each: the equilibrium mean
    fields from z0 and every z0 + E; the tracking offsets of the
    predictions; the realized mean fields of the distinct average offsets;
    and the agent trajectories.  The paths of the returned runs are column
    views of the batch arrays; identical columns are solved once.
    """
    params, grid = bundle.params, bundle.grid
    P0v, P1v, Gv = bundle.P0.values, bundle.P1.values, bundle.G.values
    z0 = np.asarray(z0, dtype=float)
    pairs = [(np.asarray(E_i, dtype=float), np.asarray(E_bar, dtype=float))
             for E_i, E_bar in pairs]
    x0 = z0 if x0 is None else np.asarray(x0, dtype=float)

    # equilibrium mean fields; the predictions come first, so their
    # distinct starts are the first p columns
    starts = [z0 + E for pair in pairs for E in pair] + [z0]
    col, first = _distinct([v.tobytes() for v in starts])
    zv = mean_field_path(params, P0v, Gv, np.stack([starts[j] for j in first], axis=1), grid)
    uv = control(params, P0v, zv, Gv)
    p = max(col[:-1]) + 1
    gv = solve_tracking_offset(params, bundle.P1, MatrixPath(grid, zv[:, :, :p]),
                               MatrixPath(grid, uv[:, :, :p]), grid).values
    c, ci, cb = col[-1], col[0:-1:2], col[1:-1:2]

    # realized mean field of each distinct average offset
    ca, first = _distinct(cb)
    g_bar = gv[:, :, [cb[j] for j in first]]
    za = mean_field_path(params, P1v, g_bar, np.repeat(z0[:, None], len(first), axis=1), grid)
    ua = control(params, P1v, za, g_bar)

    # tagged agent's expected trajectory for each distinct (g_i, z_A)
    cx, first = _distinct(list(zip(ci, ca)))
    g_i = gv[:, :, [ci[r] for r in first]]
    z_A = za[:, :, [ca[r] for r in first]]
    u_A = ua[:, :, [ca[r] for r in first]]
    f = -(params.BRB @ g_i) + params.C @ z_A + params.F @ u_A
    xv = rk4_affine(agent_generator(params, P1v), f,
                    np.repeat(x0[:, None], len(first), axis=1), grid, forward=True)
    xu = control(params, P1v, xv, g_i)

    def path(a, j):
        return VectorPath(grid, a[:, :, j])

    z_c = MeanField(z=path(zv, c), ubar=path(uv, c))
    return [
        LimitingRun(
            bundle=bundle, E_i=E_i, E_bar=E_bar, z_c=z_c,
            mf_i=MeanField(z=path(zv, ci[r]), ubar=path(uv, ci[r])), g_i=path(gv, ci[r]),
            zbar=MeanField(z=path(zv, cb[r]), ubar=path(uv, cb[r])), g_bar=path(gv, cb[r]),
            z_A=path(za, ca[r]), ubar_A=path(ua, ca[r]),
            x_i=path(xv, cx[r]), u_i=path(xu, cx[r]),
        )
        for r, (E_i, E_bar) in enumerate(pairs)
    ]


def solve_limiting(bundle: RiccatiBundle, z0, E_i, E_bar, x0=None) -> LimitingRun:
    """The deterministic scenario of one error pair: solve_limiting_batch
    with S = 1.

    z0 is the true initial mean field; the tagged agent predicts from
    z0 + E_i while the population average prediction starts at z0 + E_bar.
    The agent's true initial state defaults to z0.
    """
    return solve_limiting_batch(bundle, z0, [(E_i, E_bar)], x0)[0]
