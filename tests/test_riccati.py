"""Backward Riccati solves, offsets, and their cross-representation identities."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.errors import FiniteEscapeError, IntegrationBlowupError
from mfg_errsim.grid import MatrixPath
from mfg_errsim.ode import half_nodes, rk4_nonlinear, rk4_steps
from mfg_errsim.params import p6_params, s1_params
from mfg_errsim.riccati import (
    RiccatiBundle,
    coupling_weight,
    solve_G1,
    solve_P0,
    solve_P1,
    solve_P2,
    solve_tracking_offset,
)

# Independent reference values for the canonical 2-d fixture, computed by
# integrating the associated linear Hamiltonian system with an adaptive
# high-order solver (rtol 1e-13) and forming P = Y X^-1 at t = 0.  Both
# solutions are scalar multiples of the identity on this fixture.
P1_AT_0 = 0.9063631609122198
P0_AT_0 = 0.5679806304460897


def _rk4_P1_P0(p, grid):
    """Reference P1 and P0 from the classical RK4 step loop on the Riccati
    right-hand sides, stacked (2, n, n)."""
    X = np.stack([p.A, p.A + p.C])
    Q = np.stack([p.Q_I + p.Q, -p.Qcal])
    M = np.stack([p.BRB, p.BFRB])
    PT = np.stack([p.Qbar_I + p.Qbar, p.Qbar_I + p.Qbar - p.Qbar @ p.Gammabar])
    vals = rk4_nonlinear(lambda t, P: -(P @ X + p.A.T @ P + Q - P @ M @ P), PT, grid,
                         forward=False)
    return vals[:, 0], vals[:, 1]


def _rk4_P2(p, P1, grid):
    """Reference P2 from the RK4 step loop, with the coefficients H1, H2, S
    read at nodes and half-steps of P1 (half_nodes)."""
    BFRB = p.BFRB
    P1h = half_nodes(P1)
    H1 = (p.A + p.C) - BFRB @ P1h
    H2 = p.A.T - P1h @ BFRB
    Sh = half_nodes(coupling_weight(p, MatrixPath(grid, P1)))
    return rk4_steps(lambda i, P: -(P @ H1[i] + H2[i] @ P + Sh[i] - P @ BFRB @ P),
                     -p.Qbar @ p.Gammabar, grid, forward=False)


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


def test_riccati_is_exact_under_grid_refinement():
    # the Hamiltonian step map has no truncation error: P1 and P0 sit at the
    # round-off level of the references on a coarse grid as on a fine one
    p = p6_params()
    ref = p.default_grid(64000)
    _, P0_ref = _rk4_P1_P0(p, ref)
    for steps in (250, 500):
        grid = p.default_grid(steps)
        assert np.max(np.abs(solve_P1(p, grid).initial - P1_AT_0 * np.eye(2))) < 1e-13
        P0 = solve_P0(p, grid).values
        assert np.max(np.abs(P0 - P0_ref[:: ref.steps // steps])) < 1e-13


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


def test_bundle_reports_the_path_that_escapes():
    # a large Q*Gamma makes Q_I + Q - Q*Gamma = -8 I, so P0 escapes while P1
    # exists; on this identity-scaled set X = x I and det X never changes sign
    p = p6_params().with_(Gamma=10.0 * np.eye(2))
    grid = p.default_grid()
    with pytest.raises(IntegrationBlowupError) as ref:
        _rk4_P1_P0(p, p.default_grid(32000))
    solve_P1(p, grid)
    with warnings.catch_warnings(), pytest.raises(FiniteEscapeError, match="P0") as ei:
        warnings.simplefilter("error")
        RiccatiBundle.solve(p, grid)
    assert abs(ei.value.time - ref.value.time) <= 2 * grid.dt
    assert grid.times[ei.value.node] == ei.value.time


def test_fast_rotation_on_a_coarse_grid_is_not_an_escape():
    # A turns by 2 rad per step, so the one-step factors of X have complex
    # eigenvalue pairs in the left half-plane while P stays finite
    p = p6_params().with_(A=np.array([[0.0, 20.0], [-20.0, 0.0]]))
    grid = p.default_grid(20)
    ref = p.default_grid(16000)
    P1_ref, P0_ref = (v[:: ref.steps // grid.steps] for v in _rk4_P1_P0(p, ref))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = RiccatiBundle.solve(p, grid)
        P2 = b.P2.values
    assert np.max(np.abs(b.P1.values - P1_ref)) < 1e-12
    assert np.max(np.abs(b.P0.values - P0_ref)) < 1e-12
    # P2 keeps the RK4 truncation of 2 rad steps (0.038 measured)
    assert np.max(np.abs(P2 - (P0_ref - P1_ref))) < 0.05


def test_long_horizon_matches_the_step_loop():
    # T = 50 takes the Hamiltonian solves through several re-anchored blocks
    p = p6_params().with_(T=50.0)
    grid = p.default_grid(50000)
    b = RiccatiBundle.solve(p, grid)
    P1_ref, P0_ref = _rk4_P1_P0(p, grid)
    P2_ref = _rk4_P2(p, b.P1.values, grid)
    for path, ref in ((b.P1, P1_ref), (b.P0, P0_ref), (b.P2, P2_ref)):
        assert np.max(np.abs(path.values - ref)) < 1e-11


def test_very_long_horizon_reanchors_to_the_algebraic_solution():
    # at T = 800 one step map's power over all 8000 steps would overflow
    # (the Hamiltonian's growth rate is sqrt(3/2), and 800 sqrt(3/2) > 709)
    p = p6_params().with_(T=800.0)
    grid = p.default_grid(8000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P1, P0 = solve_P1(p, grid).values, solve_P0(p, grid).values
    # stabilizing roots of the algebraic equations on P6 (every matrix a
    # multiple of I): P1^2 + 8 P1 - 8 = 0 and P0^2 + 3 P0 - 2 = 0
    interior = grid.times <= p.T - 20.0
    assert np.max(np.abs(P1[interior] - (np.sqrt(24.0) - 4.0) * np.eye(2))) < 1e-12
    assert np.max(np.abs(P0[interior] - (np.sqrt(17.0) - 3.0) / 2.0 * np.eye(2))) < 1e-12


def test_bundle_P1_P0_equal_the_standalone_solves(bundle, params, grid):
    # the bundle takes P1 and P0 from the standalone solves
    mixed = params.with_(A=np.array([[-1.0, 0.3], [-0.2, -0.8]]),
                         C=np.array([[0.3, -0.1], [0.25, 0.2]]))
    for p, b in ((params, bundle), (mixed, RiccatiBundle.solve(mixed, grid))):
        npt.assert_array_equal(b.P1.values, solve_P1(p, grid).values)
        npt.assert_array_equal(b.P0.values, solve_P0(p, grid).values)


def test_lazy_P2_and_G1_equal_the_direct_solves(params, grid):
    b = RiccatiBundle.solve(params, grid)
    P2 = solve_P2(params, b.P1, grid)
    npt.assert_array_equal(b.P2.values, P2.values)
    npt.assert_array_equal(b.G1.values, solve_G1(params, b.P1, P2, grid).values)
    assert b.P2 is b.P2 and b.G1 is b.G1


def test_P2_block_bound_does_not_overflow():
    # dt ||Ham||_F is far past log(float max) here, so exp of it overflows
    p = p6_params().with_(A=1000.0 * np.eye(2))
    grid = p.default_grid(200)
    P1 = solve_P1(p, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P2 = solve_P2(p, P1, grid)
    assert np.isfinite(P2.values).all()


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
