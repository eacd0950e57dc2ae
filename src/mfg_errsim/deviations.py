"""Linear maps from initial-information errors to equilibrium deviations.

When agents base their strategies on erroneous initial mean-field estimates
z_i(0) = z0 + E_i, every resulting deviation is linear in the errors:

* predicted mean field:   dz_i(t)   = Phi1(t) E_i,
* control offset:         dg_i(t)   = Mg(t) E_i,
* actual mean field:      dz^A(t)   = Mz(t) Ebar,
* expected own trajectory dx_i(t)   = Mx1(t) E_i + Mx2(t) Ebar,
* observed drift residual Ob1(t)    = K1(t) Ebar + K2(t) E_i.

The maps live on the Riccati bundle (riccati.RiccatiBundle), one solved
object per parameter set and grid, each built on its first read.  An
agent's offset in its predicted equilibrium is (P0 - P1) z + G (the
representation identity P2 = P0 - P1), so Mg = (P0 - P1) Phi1 is a
product of the bundle's paths; Mz is the realized mean field's solve
(riccati.mean_field_path) that Mg drives.  The residual is a mean-field
drift C z + F ubar (riccati.mf_drift): K1 that of Mz, K2 minus that of
Phi1, each under the control Mg drives.  The single-agent transition PhiX
and the own-trajectory maps Mx1, Mx2 come from one more scan, forced by
K1 for Mx2.  build_maps builds Mg and Mz; the functions below apply the
maps of a bundle to given errors.
"""

from __future__ import annotations

import numpy as np

from .grid import MatrixPath, VectorPath
from .riccati import RiccatiBundle, control


def build_maps(bundle: RiccatiBundle) -> RiccatiBundle:
    """Build the deviation maps Mg and Mz of a solved parameter set on its
    bundle, and return the bundle."""
    bundle.Mz  # reads, and so builds, Mg
    return bundle


def _apply(M: MatrixPath, v) -> VectorPath:
    v = np.asarray(v, dtype=float)
    return VectorPath(M.grid, np.einsum("kij,j->ki", M.values, v))


def predicted_mf_deviation(bundle: RiccatiBundle, E_i):
    """Deviation of an agent's predicted mean field and control from errors E_i."""
    dz = _apply(bundle.Phi1, E_i)
    du = control(bundle.params, bundle.P0.values, dz.values)
    return {"dz": dz, "du": VectorPath(bundle.grid, du)}


def control_offset_deviation(bundle: RiccatiBundle, E_i) -> VectorPath:
    """Deviation of the agent's tracking offset g_i from its errors E_i."""
    return _apply(bundle.Mg, E_i)


def actual_mf_deviation(bundle: RiccatiBundle, E_bar):
    """Deviation of the realized (actual) mean field from the average error."""
    dz = _apply(bundle.Mz, E_bar)
    dg = _apply(bundle.Mg, E_bar)
    du = control(bundle.params, bundle.P1.values, dz.values, dg.values)
    return {"dz": dz, "du": VectorPath(bundle.grid, du)}


def expected_trajectory_deviation(bundle: RiccatiBundle, E_i, E_bar) -> VectorPath:
    """Expected deviation of agent i's own trajectory."""
    dx = _apply(bundle.Mx1, E_i).values + _apply(bundle.Mx2, E_bar).values
    return VectorPath(bundle.grid, dx)
