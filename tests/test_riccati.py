"""Backward Riccati solves, offsets, and their cross-representation identities."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.errors import FiniteEscapeError
from mfg_errsim.params import p6_params, s1_params
from mfg_errsim.riccati import (
    RiccatiBundle,
    solve_P0,
    solve_P1,
    solve_tracking_offset,
)

# Independent reference values for the canonical 2-d fixture, computed by
# integrating the associated linear Hamiltonian system with an adaptive
# high-order solver (rtol 1e-13) and forming P = Y X^-1 at t = 0.  Both
# solutions are scalar multiples of the identity on this fixture.
P1_AT_0 = 0.9063631609122198
P0_AT_0 = 0.5679806304460897


def _tanh_fixture():
    """Scalar problem with closed-form solution P(t) = tanh(T - t)."""
    one = np.eye(1)
    return s1_params().with_(Qbar_I=0 * one, Qbar=0 * one, relaxed=True)


def test_stationary_scalar_fixture_is_a_fixed_point():
    p = s1_params()
    grid = p.default_grid(500)
    P1 = solve_P1(p, grid)
    # terminal value 1 solves P A + A'P + 1 - P^2 = 0, so P1 is constant
    npt.assert_allclose(P1.values, 1.0, atol=1e-10)


def test_scalar_riccati_matches_tanh():
    p = _tanh_fixture()
    grid = p.default_grid(2000)
    P1 = solve_P1(p, grid)
    exact = np.tanh(p.T - grid.times)
    npt.assert_allclose(P1.values[:, 0, 0], exact, atol=1e-8)


def test_P1_terminal_value_and_symmetry(bundle, params):
    npt.assert_array_equal(bundle.P1.terminal, params.Qbar_I + params.Qbar)
    sym_err = np.max(np.abs(bundle.P1.values - np.transpose(bundle.P1.values, (0, 2, 1))))
    assert sym_err < 1e-12


def test_P0_and_P2_terminal_values(bundle, params):
    npt.assert_array_equal(
        bundle.P0.terminal,
        params.Qbar_I + params.Qbar - params.Qbar @ params.Gammabar,
    )
    npt.assert_array_equal(bundle.P2.terminal, -params.Qbar @ params.Gammabar)


def test_P1_initial_value_matches_hamiltonian_reference(bundle):
    npt.assert_allclose(bundle.P1.initial, P1_AT_0 * np.eye(2), atol=1e-7)


def test_P0_initial_value_matches_hamiltonian_reference(bundle):
    npt.assert_allclose(bundle.P0.initial, P0_AT_0 * np.eye(2), atol=1e-7)


def test_P2_equals_P0_minus_P1(bundle):
    err = np.max(np.abs(bundle.P2.values - (bundle.P0.values - bundle.P1.values)))
    assert err < 1e-6


def test_offsets_agree_across_representations(bundle):
    err = np.max(np.abs(bundle.G1.values - bundle.G.values))
    assert err < 1e-6


def test_offset_terminal_values(bundle, params):
    GT = -params.Qbar_I @ params.sbar - params.Qbar @ params.etabar
    npt.assert_array_equal(bundle.G.terminal, GT)
    npt.assert_array_equal(bundle.G1.terminal, GT)


def test_tracking_offset_terminal_value(bundle, params, mf_c):
    g = solve_tracking_offset(params, bundle.P1, mf_c.z, mf_c.ubar, bundle.grid)
    gT = -params.Qbar_I @ params.sbar - params.Qbar @ (
        params.Gammabar @ mf_c.z.terminal + params.etabar
    )
    npt.assert_allclose(g.terminal, gT, atol=1e-14)


def test_riccati_convergence_under_grid_refinement():
    p = p6_params()
    coarse = solve_P1(p, p.default_grid(250)).initial
    fine = solve_P1(p, p.default_grid(500)).initial
    assert np.max(np.abs(coarse - P1_AT_0 * np.eye(2))) > \
        np.max(np.abs(fine - P1_AT_0 * np.eye(2)))


def test_finite_escape_is_reported_with_location():
    # negative running weight turns the backward flow into dP/dt = 1 + P^2
    # from P(T) = 0, which escapes at t = T - pi/2
    one = np.eye(1)
    p = s1_params().with_(
        Q_I=-1.0 * one, Q=0 * one, Qbar_I=0 * one, Qbar=0 * one, relaxed=True,
    )
    with warnings.catch_warnings(), pytest.raises(FiniteEscapeError) as ei:
        warnings.simplefilter("error")
        solve_P1(p, p.default_grid(4000))
    assert abs(ei.value.time - (p.T - np.pi / 2.0)) < 0.05


def test_bundle_P1_P0_equal_the_standalone_solves(bundle, params, grid):
    # the bundle solves P1 and P0 in one stacked loop
    mixed = params.with_(A=np.array([[-1.0, 0.3], [-0.2, -0.8]]),
                         C=np.array([[0.3, -0.1], [0.25, 0.2]]))
    for p, b in ((params, bundle), (mixed, RiccatiBundle.solve(mixed, grid))):
        npt.assert_array_equal(b.P1.values, solve_P1(p, grid).values)
        npt.assert_array_equal(b.P0.values, solve_P0(p, grid).values)


def test_bundle_solve_collects_consistent_paths(bundle, grid):
    assert bundle.grid is grid
    for path in (bundle.P0, bundle.P1, bundle.P2):
        assert path.shape == (2, 2)
    for path in (bundle.G, bundle.G1):
        assert path.dim == 2


def test_P0_independent_of_P1():
    # solve_P0 is self-contained; spot-check against the bundle on a coarse grid
    p = p6_params()
    grid = p.default_grid(400)
    P0 = solve_P0(p, grid)
    npt.assert_allclose(P0.initial, P0_AT_0 * np.eye(2), atol=1e-6)
