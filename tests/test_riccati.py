"""Backward Riccati solves, offsets, and their cross-representation identities."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.errors import FiniteEscapeError, GridMismatchError, IntegrationBlowupError
from mfg_errsim.grid import MatrixPath, TimeGrid
from mfg_errsim.ode import half_nodes, rk4_nonlinear, rk4_steps
from mfg_errsim.params import p6_params, s1_params
from mfg_errsim.core import equilibrium_mf
from mfg_errsim.deviations import build_maps
from mfg_errsim.limiting import solve_limiting
from mfg_errsim.riccati import (
    RiccatiBundle,
    coupling_weight,
    mf_generator,
    offset_generator,
    solve_G,
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
    g = solve_tracking_offset(bundle, mf_c.z, mf_c.ubar)
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


def _rk4_step_loop(H, f, v0, grid, forward):
    """The classical RK4 step loop on dv/dt = H v + f, written out, with H
    and f read at half-steps as the average of the two nodes: the
    reference for the scans under step maps."""
    K, h = grid.steps, grid.dt if forward else -grid.dt
    Hm, fm = 0.5 * (H[:-1] + H[1:]), 0.5 * (f[:-1] + f[1:])
    out = np.empty((K + 1,) + np.shape(v0))
    v = out[0 if forward else K] = v0
    for a in range(K) if forward else range(K, 0, -1):
        b, mid = (a + 1, a) if forward else (a - 1, a - 1)
        k1 = H[a] @ v + f[a]
        k2 = Hm[mid] @ (v + 0.5 * h * k1) + fm[mid]
        k3 = Hm[mid] @ (v + 0.5 * h * k2) + fm[mid]
        k4 = H[b] @ (v + h * k3) + f[b]
        v = out[b] = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def test_long_horizon_forced_solves_under_step_maps_match_the_step_loop():
    # T = 50 on a non-commuting set whose mf_generator(P1) has an eigenvalue
    # of real part 0.13, so PhiZ and the realized mean field grow over the
    # horizon (|PhiZ| reaches about 400)
    p = p6_params().with_(
        T=50.0, A=np.array([[-1.0, 0.3], [-0.2, -0.8]]),
        B=np.array([[0.6, 0.1], [-0.2, 0.4]]), C=np.array([[1.3, -0.1], [0.25, 1.1]]),
        F=np.array([[0.2, 0.05], [-0.1, 0.3]]), R=np.array([[1.2, 0.3], [0.3, 0.8]]),
        Gamma=np.array([[0.5, 0.2], [-0.1, 0.4]]))
    grid = p.default_grid(5000)
    b = RiccatiBundle.solve(p, grid)
    P0v, P1v = b.P0.values, b.P1.values
    H0, H1 = mf_generator(p, P0v), mf_generator(p, P1v)
    Hg = offset_generator(p, P1v, p.BRB)
    assert np.max(np.linalg.eigvals(H1).real) > 0.1
    assert np.max(np.abs(b.PhiZ.values)) > 100.0
    z0, E = np.array([0.4, -0.2]), np.array([0.08, -0.12])

    def check(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    # equilibrium mean field from t_0 and from a midgrid start
    mf = equilibrium_mf(b, z0)
    check(mf.z.values, _rk4_step_loop(H0, -(b.G.values @ p.BFRB.T), z0, grid, True))
    k0 = 1700
    mf_k = equilibrium_mf(b, z0, k0)
    check(mf_k.z.values, _rk4_step_loop(H0[k0:], -(b.G.values[k0:] @ p.BFRB.T), z0,
                                        grid.subgrid(k0), True))
    # tracking offsets on the whole grid and on the tail
    for m in (mf, mf_k):
        k = grid.steps - m.z.grid.steps
        z, ub = m.z.values, m.ubar.values
        drive = (np.einsum("kij,kj->ki", P1v[k:] @ p.C - p.Q @ p.Gamma, z)
                 + np.einsum("kij,kj->ki", P1v[k:] @ p.F, ub) - p.nu)
        gT = -p.Qbar_I @ p.sbar - p.Qbar @ (p.Gammabar @ z[-1] + p.etabar)
        check(solve_tracking_offset(b, m.z, m.ubar).values,
              _rk4_step_loop(Hg[k:], -drive, gT, m.z.grid, False))
    # realized mean field of one average offset
    run = solve_limiting(b, z0, E, E)
    check(run.z_A.values, _rk4_step_loop(H1, -(run.g_bar.values @ p.BFRB.T), z0, grid, True))
    # the deviation maps Mg = (P0 - P1) Phi1 and Mz (under mf_generator(P1))
    maps = build_maps(b)
    check(maps.Mg.values, (P0v - P1v) @ _rk4_step_loop(H0, np.zeros_like(H0), np.eye(2),
                                                       grid, True))
    check(maps.Mz.values, _rk4_step_loop(H1, -(p.BFRB @ maps.Mg.values), np.zeros((2, 2)),
                                         grid, True))
    check(b.PhiZ.values, _rk4_step_loop(H1, np.zeros_like(H1), np.eye(2), grid, True))


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
    P2 = solve_P2(params, b.P1)
    npt.assert_array_equal(b.P2.values, P2.values)
    npt.assert_array_equal(b.G1.values, solve_G1(params, b.P1, P2).values)
    assert b.P2 is b.P2 and b.G1 is b.G1


def test_solves_on_a_sliced_path_live_on_its_grid(bundle, params, mf_c):
    # a solve takes its grid from the paths it is given: the slice's [t_k, T]
    k = 500
    P0, P1 = bundle.P0.slice(k), bundle.P1.slice(k)
    z, ubar = mf_c.z.slice(k), mf_c.ubar.slice(k)
    G = solve_G(params, P0)
    for path in (G, solve_P2(params, P1), solve_tracking_offset(bundle, z, ubar)):
        assert path.grid == P1.grid and len(path) == len(P1)
    # G on the slice ends where the full G does and steps the same nodes back
    npt.assert_allclose(G.values, bundle.G.values[k:], atol=1e-12)


def test_G1_needs_P1_and_P2_on_one_grid(bundle, params):
    P1, P2 = bundle.P1, bundle.P2
    for other in (P2.slice(0, 1000),
                  MatrixPath(TimeGrid(0.0, 2.0 * P2.grid.t_end, P2.grid.steps), P2.values)):
        with pytest.raises(GridMismatchError):
            solve_G1(params, P1, other)


def test_tracking_offset_needs_a_tail_of_the_bundle_grid(bundle, mf_c):
    # the bundle's step maps serve its grid and every tail [t_k, T] of it
    z, ubar = mf_c.z, mf_c.ubar
    for zs, us in ((z.slice(0, 1000), ubar.slice(0, 1000)),
                   (z.slice(500), ubar.slice(400)),
                   (z.slice(3, 1003), ubar.slice(3, 1003))):
        with pytest.raises(GridMismatchError):
            solve_tracking_offset(bundle, zs, us)


def test_P2_block_bound_does_not_overflow():
    # dt ||Ham||_F is far past log(float max) here, so exp of it overflows
    p = p6_params().with_(A=1000.0 * np.eye(2))
    grid = p.default_grid(200)
    P1 = solve_P1(p, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P2 = solve_P2(p, P1)
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
