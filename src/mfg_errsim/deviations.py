"""Linear maps from initial-information errors to equilibrium deviations.

When agents base their strategies on erroneous initial mean-field estimates
z_i(0) = z0 + E_i, every resulting deviation is linear in the errors:

* predicted mean field:   dz_i(t)   = Phi1(t) E_i,
* control offset:         dg_i(t)   = Mg(t) E_i,
* actual mean field:      dz^A(t)   = Mz(t) Ebar,
* expected own trajectory dx_i(t)   = Mx1(t) E_i + Mx2(t) Ebar.

The maps are built once per parameter set by integrating their defining
matrix ODEs on the shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MatrixPath, VectorPath
from .ode import fundamental_solution, rk4_affine
from .riccati import (
    RiccatiBundle,
    agent_generator,
    control,
    coupling_weight,
    mf_generator,
    offset_generator,
)


@dataclass
class DeviationMaps:
    """Fundamental solutions and error-to-deviation maps on one grid."""

    bundle: RiccatiBundle
    Phi1: MatrixPath   # transition of the predicted-equilibrium system
    PhiZ: MatrixPath   # transition of the actual-mean-field system
    PhiX: MatrixPath   # transition of the single-agent closed loop
    Mg: MatrixPath
    Mz: MatrixPath
    Mx1: MatrixPath
    Mx2: MatrixPath

    @property
    def grid(self):
        return self.bundle.grid

    @property
    def params(self):
        return self.bundle.params


def _matmul_nodes(A, B):
    return np.einsum("kij,kjl->kil", A, B)


def build_maps(bundle: RiccatiBundle) -> DeviationMaps:
    """Construct all deviation maps for a solved parameter set."""
    params, grid = bundle.params, bundle.grid
    n = params.n
    P1v = bundle.P1.values
    BFRB, BRB, FRB = params.BFRB, params.BRB, params.FRB

    # the offset deviation runs backward: d(dg)/dt = -(Hg dg + S dz)
    Hg = offset_generator(params, P1v, BFRB)
    Hz = mf_generator(params, P1v)
    Hx = agent_generator(params, P1v)

    Phi1, PhiZ = bundle.Phi1, bundle.PhiZ
    PhiX = fundamental_solution(MatrixPath(grid, Hx), grid.t_start)

    S = coupling_weight(params, bundle.P1)  # P1 C - P1 F R^-1 B' P1 - Q*Gamma

    # offset deviation: backward affine matrix ODE driven by S Phi1
    MgT = -params.Qbar @ params.Gammabar @ Phi1.terminal
    Mg_v = rk4_affine(Hg, -_matmul_nodes(S, Phi1.values), MgT, grid, forward=False)
    Mg = MatrixPath(grid, Mg_v)

    # actual mean-field deviation: forward, zero initial state
    fz = -np.einsum("ij,kjl->kil", BFRB, Mg_v)
    Mz = MatrixPath(grid, rk4_affine(Hz, fz, np.zeros((n, n)), grid, forward=True))

    # expected own-trajectory deviations
    fx1 = -np.einsum("ij,kjl->kil", BRB, Mg_v)
    Mx1 = MatrixPath(grid, rk4_affine(Hx, fx1, np.zeros((n, n)), grid, forward=True))
    L2 = (
        np.einsum("ij,kjl->kil", params.C, Mz.values)
        - np.einsum("ij,kjl->kil", FRB, _matmul_nodes(P1v, Mz.values))
        - np.einsum("ij,kjl->kil", FRB, Mg_v)
    )
    Mx2 = MatrixPath(grid, rk4_affine(Hx, L2, np.zeros((n, n)), grid, forward=True))

    return DeviationMaps(
        bundle=bundle, Phi1=Phi1, PhiZ=PhiZ, PhiX=PhiX,
        Mg=Mg, Mz=Mz, Mx1=Mx1, Mx2=Mx2,
    )


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
