"""Linear maps from initial-information errors to equilibrium deviations.

When agents base their strategies on erroneous initial mean-field estimates
z_i(0) = z0 + E_i, every resulting deviation is linear in the errors:

* predicted mean field:   dz_i(t)   = Phi1(t) E_i,
* control offset:         dg_i(t)   = Mg(t) E_i,
* actual mean field:      dz^A(t)   = Mz(t) Ebar,
* expected own trajectory dx_i(t)   = Mx1(t) E_i + Mx2(t) Ebar.

The maps are built once per parameter set on the Riccati bundle's grid.
An agent's offset in its predicted equilibrium is (P0 - P1) z + G (the
representation identity P2 = P0 - P1), so Mg = (P0 - P1) Phi1 is a
product of the bundle's paths; Mz is the forward scan that Mg drives
under the bundle's step maps of mf_generator(P1).  The transitions Phi1
and PhiZ are the bundle's, which solves each on its first read.  The
single-agent transition PhiX and the own-trajectory maps Mx1, Mx2 come
from one more scan, run on their first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import MatrixPath, VectorPath
from .ode import rk4_affine
from .riccati import RiccatiBundle, agent_generator, control


@dataclass
class DeviationMaps:
    """Fundamental solutions and error-to-deviation maps on one grid.

    Phi1 and PhiZ are the bundle's; PhiX, Mx1 and Mx2 are built on first
    read (see _agent_paths)."""

    bundle: RiccatiBundle
    Mg: MatrixPath
    Mz: MatrixPath

    @property
    def grid(self):
        return self.bundle.grid

    @property
    def params(self):
        return self.bundle.params

    @property
    def Phi1(self) -> MatrixPath:
        """Transition of the predicted-equilibrium system."""
        return self.bundle.Phi1

    @property
    def PhiZ(self) -> MatrixPath:
        """Transition of the actual-mean-field system."""
        return self.bundle.PhiZ

    @property
    def PhiX(self) -> MatrixPath:
        """Transition of the single-agent closed loop."""
        return self._agent_paths[0]

    @property
    def Mx1(self) -> MatrixPath:
        return self._agent_paths[1]

    @property
    def Mx2(self) -> MatrixPath:
        return self._agent_paths[2]

    @cached_property
    def _agent_paths(self):
        """(PhiX, Mx1, Mx2): the single-agent closed loop carries its
        transition PhiX from I and the own-trajectory deviations Mx1, Mx2
        from 0, one scan of the columns [PhiX | Mx1 | Mx2] from [I | 0 | 0]
        under [0 | fx1 | L2].  Built on first read and shared by every later
        reader."""
        params, grid = self.params, self.grid
        n = params.n
        P1v, Mg_v, Mz_v = self.bundle.P1.values, self.Mg.values, self.Mz.values
        FRB = params.FRB
        f = np.zeros((grid.steps + 1, n, 3 * n))
        f[:, :, n:2 * n] = -(params.BRB @ Mg_v)
        f[:, :, 2 * n:] = params.C @ Mz_v - FRB @ (P1v @ Mz_v) - FRB @ Mg_v
        X = rk4_affine(agent_generator(params, P1v), f, np.eye(n, 3 * n), grid,
                       forward=True)
        return tuple(MatrixPath(grid, X[:, :, j * n:(j + 1) * n]) for j in range(3))


def build_maps(bundle: RiccatiBundle) -> DeviationMaps:
    """Construct the deviation maps of a solved parameter set."""
    params = bundle.params
    # offset deviation: dg = (P0 - P1) dz with dz = Phi1 E
    Mg_v = (bundle.P0.values - bundle.P1.values) @ bundle.Phi1.values
    # actual mean-field deviation: forward under the bundle's step maps of
    # mf_generator(P1), zero initial state
    Mz_v = bundle.mf1_steps.solve(-(params.BFRB @ Mg_v), np.zeros((params.n, params.n)))
    return DeviationMaps(bundle=bundle, Mg=MatrixPath(bundle.grid, Mg_v),
                         Mz=MatrixPath(bundle.grid, Mz_v))


def _apply(M: MatrixPath, v) -> VectorPath:
    v = np.asarray(v, dtype=float)
    return VectorPath(M.grid, np.einsum("kij,j->ki", M.values, v))


def predicted_mf_deviation(maps: DeviationMaps, E_i):
    """Deviation of an agent's predicted mean field and control from errors E_i."""
    dz = _apply(maps.Phi1, E_i)
    du = control(maps.params, maps.bundle.P0.values, dz.values)
    return {"dz": dz, "du": VectorPath(maps.grid, du)}


def control_offset_deviation(maps: DeviationMaps, E_i) -> VectorPath:
    """Deviation of the agent's tracking offset g_i from its errors E_i."""
    return _apply(maps.Mg, E_i)


def actual_mf_deviation(maps: DeviationMaps, E_bar):
    """Deviation of the realized (actual) mean field from the average error."""
    dz = _apply(maps.Mz, E_bar)
    dg = _apply(maps.Mg, E_bar)
    du = control(maps.params, maps.bundle.P1.values, dz.values, dg.values)
    return {"dz": dz, "du": VectorPath(maps.grid, du)}


def expected_trajectory_deviation(maps: DeviationMaps, E_i, E_bar) -> VectorPath:
    """Expected deviation of agent i's own trajectory."""
    E_i = np.asarray(E_i, dtype=float)
    E_bar = np.asarray(E_bar, dtype=float)
    vals = (
        np.einsum("kij,j->ki", maps.Mx1.values, E_i)
        + np.einsum("kij,j->ki", maps.Mx2.values, E_bar)
    )
    return VectorPath(maps.grid, vals)
