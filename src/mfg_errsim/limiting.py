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
the mean fields and offsets are three scans with one column per run, each
under step maps the Riccati bundle keeps (ode.StepMaps), so a repeated
parameter set builds no step map; each run solves its x_i on first read
(one rk4_affine).  The trajectories are direct solves of their ODEs on the
bundle's grid, independent of the linear deviation maps they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """All deterministic limit trajectories for one (E_i, Ebar) scenario.

    The tagged agent's expected trajectory x_i, u_i from x0 is solved on
    its first read (see _agent)."""

    bundle: RiccatiBundle
    E_i: np.ndarray
    E_bar: np.ndarray
    x0: np.ndarray       # the tagged agent's true initial state
    z_c: MeanField       # correct-information equilibrium
    mf_i: MeanField      # tagged agent's prediction
    g_i: VectorPath
    zbar: MeanField      # average prediction across the population
    g_bar: VectorPath
    z_A: VectorPath      # realized mean field
    ubar_A: VectorPath   # realized average control

    @property
    def grid(self):
        return self.bundle.grid

    @property
    def x_i(self) -> VectorPath:
        """Tagged agent's expected trajectory."""
        return self._agent[0]

    @property
    def u_i(self) -> VectorPath:
        return self._agent[1]

    @cached_property
    def _agent(self):
        """(x_i, u_i): the agent plays its own offset g_i inside the realized
        mean field, dx = [agent_generator(P1) x - B R^-1 B' g_i + C z_A
        + F ubar_A] dt from x0, one single-column scan."""
        params, grid = self.bundle.params, self.grid
        P1v = self.bundle.P1.values
        g, z, u = (p.values[..., None] for p in (self.g_i, self.z_A, self.ubar_A))
        f = -(params.BRB @ g) + params.C @ z + params.F @ u
        xv = rk4_affine(agent_generator(params, P1v), f, self.x0[:, None], grid,
                        forward=True)
        uv = control(params, P1v, xv, g)
        return VectorPath(grid, xv[..., 0]), VectorPath(grid, uv[..., 0])

    def observable(self) -> VectorPath:
        """Exact drift residual Ob = C z_A + F ubar_A seen by any agent."""
        params = self.bundle.params
        vals = (
            self.z_A.values @ params.C.T + self.ubar_A.values @ params.F.T
        )
        return VectorPath(self.grid, vals)


def solve_limiting_batch(bundle: RiccatiBundle, z0, pairs, x0=None) -> list[LimitingRun]:
    """The deterministic scenarios of a tagged agent for S error pairs.

    pairs lists (E_i, E_bar): the tagged agent predicts from z0 + E_i while
    the population average prediction starts at z0 + E_bar; z0 is the true
    initial mean field, and x0, the agent's true initial state in every
    run, defaults to z0.

    Three scans, one column per run each, under the bundle's step maps:
    the equilibrium mean fields of 2S + 1 columns (mf0_steps), column 2r
    from z0 + E_i of pair r, column 2r + 1 from z0 + E_bar of pair r and
    the last from z0; the tracking offsets of the 2S predictions
    (tracking_steps); and the realized mean fields of the S average
    offsets (mf1_steps).
    The paths of the returned runs are column views of the batch arrays.
    A run solves the agent trajectory x_i, u_i on its first read.
    """
    params, grid = bundle.params, bundle.grid
    P0v, P1v, Gv = bundle.P0.values, bundle.P1.values, bundle.G.values
    z0 = np.asarray(z0, dtype=float)
    pairs = [(np.asarray(E_i, dtype=float), np.asarray(E_bar, dtype=float))
             for E_i, E_bar in pairs]
    x0 = z0 if x0 is None else np.asarray(x0, dtype=float)
    S = len(pairs)

    zv = mean_field_path(params, bundle.mf0_steps, Gv, np.stack(
        [z0 + E for pair in pairs for E in pair] + [z0], axis=1))
    uv = control(params, P0v, zv, Gv)
    gv = solve_tracking_offset(bundle, MatrixPath(grid, zv[:, :, :2 * S]),
                               MatrixPath(grid, uv[:, :, :2 * S])).values

    # realized mean field of each average offset
    g_bar = gv[:, :, 1::2]
    za = mean_field_path(params, bundle.mf1_steps, g_bar, np.repeat(z0[:, None], S, axis=1))
    ua = control(params, P1v, za, g_bar)

    def path(a, j):
        return VectorPath(grid, a[:, :, j])

    z_c = MeanField(z=path(zv, 2 * S), ubar=path(uv, 2 * S))
    return [
        LimitingRun(
            bundle=bundle, E_i=E_i, E_bar=E_bar, x0=x0, z_c=z_c,
            mf_i=MeanField(z=path(zv, 2 * r), ubar=path(uv, 2 * r)), g_i=path(gv, 2 * r),
            zbar=MeanField(z=path(zv, 2 * r + 1), ubar=path(uv, 2 * r + 1)),
            g_bar=path(gv, 2 * r + 1), z_A=path(za, r), ubar_A=path(ua, r),
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
