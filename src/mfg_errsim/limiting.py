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

Everything is integrated with the same RK4 kernel as the Riccati solves, so
cross-checks against the linear deviation maps hold to integrator accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanField, equilibrium_mf
from .grid import VectorPath
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


def realized_mean_field(bundle: RiccatiBundle, g_bar: VectorPath, z0) -> VectorPath:
    """Mean field produced by a population playing offsets averaging to g_bar.

    Solves dz = [(A + C - (B+F) R^-1 B' P1) z - (B+F) R^-1 B' g_bar] dt
    forward from the true initial average z0.
    """
    vals = mean_field_path(bundle.params, bundle.P1.values, g_bar.values, z0, bundle.grid)
    return VectorPath(bundle.grid, vals)


def agent_trajectory(bundle: RiccatiBundle, g_i: VectorPath, z_A: VectorPath,
                     ubar_A: VectorPath, x0) -> tuple[VectorPath, VectorPath]:
    """Expected trajectory of one agent playing offset g_i inside (z_A, ubar_A)."""
    params, grid = bundle.params, bundle.grid
    f = (
        -np.einsum("ij,kj->ki", params.BRB, g_i.values)
        + z_A.values @ params.C.T
        + ubar_A.values @ params.F.T
    )
    xv = rk4_affine(agent_generator(params, bundle.P1.values), f,
                    np.asarray(x0, dtype=float), grid, forward=True)
    uv = control(params, bundle.P1.values, xv, g_i.values)
    return VectorPath(grid, xv), VectorPath(grid, uv)


def planned_offset(bundle: RiccatiBundle, mf: MeanField) -> VectorPath:
    """Tracking offset an agent derives from its own mean-field prediction."""
    return solve_tracking_offset(bundle.params, bundle.P1, mf.z, mf.ubar, bundle.grid)


def solve_limiting(bundle: RiccatiBundle, z0, E_i, E_bar, x0=None) -> LimitingRun:
    """Build the full deterministic scenario for a tagged agent.

    z0 is the true initial mean field; the tagged agent predicts from
    z0 + E_i while the population average prediction starts at z0 + E_bar.
    The agent's true initial state defaults to z0.
    """
    params = bundle.params
    z0 = np.asarray(z0, dtype=float)
    E_i = np.asarray(E_i, dtype=float)
    E_bar = np.asarray(E_bar, dtype=float)
    if x0 is None:
        x0 = z0

    z_c = equilibrium_mf(bundle, z0)
    mf_i = equilibrium_mf(bundle, z0 + E_i)
    g_i = planned_offset(bundle, mf_i)
    zbar = equilibrium_mf(bundle, z0 + E_bar)
    g_bar = planned_offset(bundle, zbar)

    z_A = realized_mean_field(bundle, g_bar, z0)
    ubar_A = VectorPath(bundle.grid, control(params, bundle.P1.values, z_A.values, g_bar.values))
    x_i, u_i = agent_trajectory(bundle, g_i, z_A, ubar_A, x0)
    return LimitingRun(
        bundle=bundle, E_i=E_i, E_bar=E_bar,
        z_c=z_c, mf_i=mf_i, g_i=g_i, zbar=zbar, g_bar=g_bar,
        z_A=z_A, ubar_A=ubar_A, x_i=x_i, u_i=u_i,
    )
