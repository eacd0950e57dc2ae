"""Error-to-deviation maps against direct two-solve differences."""

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.core import equilibrium_law
from mfg_errsim.deviations import (
    actual_mf_deviation,
    build_maps,
    control_offset_deviation,
    expected_trajectory_deviation,
    predicted_mf_deviation,
)
from mfg_errsim import deviations, limiting, ode
from mfg_errsim.limiting import solve_limiting, solve_limiting_batch
from mfg_errsim.ode import rk4_affine
from mfg_errsim.params import P6_Z0
from mfg_errsim.riccati import RiccatiBundle, coupling_weight, offset_generator

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


@pytest.mark.parametrize("fixture", ["maps", "mixed_maps"])
def test_offset_map_is_the_representation_identity(request, fixture):
    # an agent's offset in its predicted equilibrium is (P0 - P1) z + G
    maps = request.getfixturevalue(fixture)
    want = (maps.bundle.P0.values - maps.bundle.P1.values) @ maps.Phi1.values
    assert np.max(np.abs(maps.Mg.values - want)) <= 1e-13 * np.max(np.abs(want))


def _Mg_by_ode(bundle):
    """Mg as the backward ODE d(Mg)/dt = -(Hg Mg + S Phi1) from
    Mg(T) = -Qbar Gammabar Phi1(T), solved by RK4 on the bundle's grid."""
    p, Phi1 = bundle.params, bundle.Phi1
    Hg = offset_generator(p, bundle.P1.values, p.BFRB)
    MgT = -p.Qbar @ p.Gammabar @ Phi1.terminal
    return rk4_affine(Hg, -(coupling_weight(p, bundle.P1) @ Phi1.values), MgT, bundle.grid,
                      forward=False)


@pytest.mark.parametrize("fixture", ["maps", "mixed_maps"])
def test_a_coarse_offset_map_meets_the_fine_grid_bound(request, fixture):
    # at 200 steps the RK4 solve of Mg's backward ODE is off by 1.5e-6 (P6)
    # and 3.3e-6 (mixed set), the identity by 7.8e-7 and 6.0e-7: only
    # Phi1's error is left
    params = request.getfixturevalue(fixture).params
    fine = _Mg_by_ode(RiccatiBundle.solve(params, params.default_grid(4000)))
    coarse = build_maps(RiccatiBundle.solve(params, params.default_grid(200)))
    assert np.max(np.abs(coarse.Mg.values - fine[::20])) < 1e-6


def test_build_maps_solves_no_one_off_ode(params, monkeypatch):
    bundle = RiccatiBundle.solve(params, params.default_grid(200))
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return rk4_affine(*args, **kwargs)

    for module in (ode, deviations):
        monkeypatch.setattr(module, "rk4_affine", spy)
    build_maps(bundle)
    assert calls == []


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


def test_agent_trajectory_is_solved_once_on_first_read(bundle, z0, monkeypatch):
    calls, rk4_affine = [], limiting.rk4_affine

    def spy(*args, **kwargs):
        calls.append(args)
        return rk4_affine(*args, **kwargs)

    monkeypatch.setattr(limiting, "rk4_affine", spy)
    first, other = solve_limiting_batch(bundle, z0, [(E_I, E_BAR), (E_BAR, E_I)])
    assert calls == []
    x, u = first.x_i, first.u_i
    assert len(calls) == 1
    assert first.x_i is x and first.u_i is u
    for path in (other.z_c.z, other.mf_i.z, other.g_i, other.zbar.z, other.g_bar,
                 other.z_A, other.ubar_A):
        path.values
    assert len(calls) == 1


def test_tagged_agent_can_start_off_the_mean(bundle, z0):
    x0 = np.array([1.0, -1.0])
    run = solve_limiting(bundle, z0, E_I, E_BAR, x0=x0)
    npt.assert_array_equal(run.x_i.initial, x0)
    npt.assert_array_equal(run.z_A.initial, np.asarray(P6_Z0))
