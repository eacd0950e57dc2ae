"""Error-to-deviation maps against direct two-solve differences."""

import numpy as np
import numpy.testing as npt

from mfg_errsim.core import equilibrium_law
from mfg_errsim.deviations import (
    actual_mf_deviation,
    control_offset_deviation,
    expected_trajectory_deviation,
    predicted_mf_deviation,
)
from mfg_errsim.limiting import solve_limiting
from mfg_errsim.params import P6_Z0

E_I = np.array([0.2, 0.1])
E_BAR = np.array([0.1, -0.1])


def test_fundamental_solutions_are_anchored(maps, grid):
    npt.assert_array_equal(maps.Phi1.initial, np.eye(2))
    npt.assert_array_equal(maps.PhiZ.initial, np.eye(2))
    npt.assert_array_equal(maps.PhiX.initial, np.eye(2))


def test_map_boundary_values(maps, params):
    # deviations of forward quantities start at zero; the offset deviation
    # ends at the terminal coupling weight applied to Phi1(T)
    npt.assert_array_equal(maps.Mz.initial, np.zeros((2, 2)))
    npt.assert_array_equal(maps.Mx1.initial, np.zeros((2, 2)))
    npt.assert_array_equal(maps.Mx2.initial, np.zeros((2, 2)))
    MgT = -params.Qbar @ params.Gammabar @ maps.Phi1.terminal
    npt.assert_array_equal(maps.Mg.terminal, MgT)


def test_zero_errors_give_zero_deviations(maps):
    zero = np.zeros(2)
    assert np.max(np.abs(predicted_mf_deviation(maps, zero)["dz"].values)) == 0.0
    assert np.max(np.abs(actual_mf_deviation(maps, zero)["dz"].values)) == 0.0
    assert np.max(np.abs(expected_trajectory_deviation(maps, zero, zero).values)) == 0.0


def test_limiting_run_with_zero_errors_reproduces_equilibrium(bundle, mf_c, z0):
    run = solve_limiting(bundle, z0, np.zeros(2), np.zeros(2))
    # the realized field is built from the P1 representation, the reference
    # from the P0 one; they agree to cross-representation accuracy
    assert np.max(np.abs(run.z_A.values - mf_c.z.values)) < 1e-6
    assert np.max(np.abs(run.x_i.values - mf_c.z.values)) < 1e-6


def test_predicted_mf_deviation_matches_two_solves(bundle, maps, z0):
    run = solve_limiting(bundle, z0, E_I, E_BAR)
    direct = run.mf_i.z.values - run.z_c.z.values
    mapped = predicted_mf_deviation(maps, E_I)
    assert np.max(np.abs(mapped["dz"].values - direct)) < 1e-6
    direct_u = run.mf_i.ubar.values - run.z_c.ubar.values
    assert np.max(np.abs(mapped["du"].values - direct_u)) < 1e-6


def test_offset_deviation_matches_two_solves(bundle, maps, mf_c, z0):
    run = solve_limiting(bundle, z0, E_I, E_BAR)
    g_c = equilibrium_law(bundle, mf_c).g
    direct = run.g_i.values - g_c.values
    mapped = control_offset_deviation(maps, E_I)
    assert np.max(np.abs(mapped.values - direct)) < 1e-6


def test_actual_mf_deviation_matches_two_solves(bundle, maps, z0):
    run = solve_limiting(bundle, z0, E_I, E_BAR)
    direct = run.z_A.values - run.z_c.z.values
    mapped = actual_mf_deviation(maps, E_BAR)
    assert np.max(np.abs(mapped["dz"].values - direct)) < 1e-6


def test_expected_trajectory_deviation_matches_two_solves(bundle, maps, mf_c, z0):
    run = solve_limiting(bundle, z0, E_I, E_BAR)
    # reference agent: correct information inside the correct-information game
    ref = solve_limiting(bundle, z0, np.zeros(2), np.zeros(2))
    direct = run.x_i.values - ref.x_i.values
    mapped = expected_trajectory_deviation(maps, E_I, E_BAR)
    assert np.max(np.abs(mapped.values - direct)) < 1e-6


def test_maps_are_linear_in_the_errors(maps):
    a = actual_mf_deviation(maps, E_BAR)["dz"].values
    b = actual_mf_deviation(maps, 2.0 * E_BAR)["dz"].values
    npt.assert_allclose(b, 2.0 * a, atol=1e-12)
    c = actual_mf_deviation(maps, E_BAR + E_I)["dz"].values
    d = actual_mf_deviation(maps, E_I)["dz"].values
    npt.assert_allclose(c, a + d, atol=1e-12)


def test_observable_of_limiting_run(bundle, params, z0):
    run = solve_limiting(bundle, z0, E_I, E_BAR)
    ob = run.observable()
    expected = run.z_A.values @ params.C.T + run.ubar_A.values @ params.F.T
    npt.assert_array_equal(ob.values, expected)
    assert ob.grid.steps == bundle.grid.steps


def test_tagged_agent_can_start_off_the_mean(bundle, z0):
    x0 = np.array([1.0, -1.0])
    run = solve_limiting(bundle, z0, E_I, E_BAR, x0=x0)
    npt.assert_array_equal(run.x_i.initial, x0)
    npt.assert_array_equal(run.z_A.initial, np.asarray(P6_Z0))
