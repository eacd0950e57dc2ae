"""One-time recovery of information errors from a single agent's trajectory."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.correction import (
    DEFAULT_SAMPLES,
    CorrectionProblem,
    _sample_nodes,
    build_correction_problem,
    corrected_mf_deviation,
    identifiability,
    modified_game,
    modified_offset_map,
    observable_path,
    recover_errors,
    residual_path,
)
from mfg_errsim.deviations import build_maps
from mfg_errsim.errors import GridMismatchError, IdentifiabilityError
from mfg_errsim.grid import TimeGrid
from mfg_errsim.limiting import solve_limiting
from mfg_errsim.ode import rk4_affine
from mfg_errsim.riccati import RiccatiBundle, coupling_weight, offset_generator

E_I = np.array([0.2, 0.1])
E_BAR = np.array([0.4, -0.4])
T0 = 0.5


@pytest.fixture(scope="module")
def run(bundle, z0):
    return solve_limiting(bundle, z0, E_I, E_BAR)


@pytest.fixture(scope="module")
def ob1(run, bundle):
    return residual_path(run.observable(), run.mf_i.z, run.g_i, bundle)


def test_finite_difference_drift_close_to_exact(run, params, grid):
    fd = observable_path(run.x_i, run.u_i, params)
    exact = run.observable()
    # central differences are second order in the step
    assert np.max(np.abs(fd.values - exact.values)) < 100.0 * grid.dt ** 2


def test_observable_path_input_validation(run, params):
    # two nodes leave no second-order difference to take
    x, u = run.x_i.slice(0, 1), run.u_i.slice(0, 1)
    with pytest.raises(ValueError, match="three nodes"):
        observable_path(x, u, params)
    assert len(observable_path(run.x_i.slice(0, 2), run.u_i.slice(0, 2), params)) == 3


def _other_horizon(path):
    """The path's node values on a grid of the same step count and twice T."""
    g = path.grid
    return type(path)(TimeGrid(g.t_start, 2.0 * g.t_end, g.steps), path.values)


@pytest.mark.parametrize("other", [_other_horizon, lambda path: path.slice(0, 1000)],
                         ids=["other_T", "other_steps"])
def test_paths_on_another_grid_are_a_grid_mismatch(run, params, bundle, maps, ob1, other):
    Ob, z_i, g_i = run.observable(), run.mf_i.z, run.g_i
    # a bundle whose P1, and so its grid, is the other one
    P1 = other(bundle.P1)
    moved = dataclasses.replace(bundle, grid=P1.grid, P1=P1)
    for args in ((other(Ob), z_i, g_i, bundle), (Ob, other(z_i), g_i, bundle),
                 (Ob, z_i, other(g_i), bundle), (Ob, z_i, g_i, moved)):
        with pytest.raises(GridMismatchError):
            residual_path(*args)
    with pytest.raises(GridMismatchError):
        build_correction_problem(maps, other(ob1), T0, run.mf_i.z.at(T0))
    with pytest.raises(GridMismatchError):
        observable_path(run.x_i, other(run.u_i), params)


def test_residual_is_linear_in_the_errors(ob1, maps):
    K1, K2 = maps.K1, maps.K2
    predicted = (
        np.einsum("kij,j->ki", K1.values, E_BAR)
        + np.einsum("kij,j->ki", K2.values, E_I)
    )
    assert np.max(np.abs(ob1.values - predicted)) < 1e-7


def test_default_sample_times_lie_in_window(grid):
    ks = _sample_nodes(grid, T0)
    assert len(ks) == DEFAULT_SAMPLES == 8
    assert 0 < ks[0] and ks[-1] == grid.index_of(T0) and (np.diff(ks) > 0).all()
    with pytest.raises(ValueError, match="fewer than 8 nodes"):
        _sample_nodes(grid, grid.dt * 2)


def test_problem_is_identifiable_with_default_samples(maps, ob1, run, grid):
    problem = build_correction_problem(maps, ob1, T0, run.mf_i.z.at(T0))
    ident = identifiability(problem)
    assert ident["identifiable"] is True
    assert ident["rank"] == 4
    assert problem.stacked_K.shape == (16, 4)
    # the gathered rows are the paths' values at the sample times
    K1, K2 = maps.K1, maps.K2
    ts = grid.times[_sample_nodes(grid, T0)]
    npt.assert_array_equal(problem.stacked_K,
                           np.vstack([np.hstack([K1.at(t), K2.at(t)]) for t in ts]))
    npt.assert_array_equal(problem.stacked_Ob1, np.concatenate([ob1.at(t) for t in ts]))


def test_error_recovery_round_trip(maps, ob1, run):
    problem = build_correction_problem(
        maps, ob1, T0, z_i_t0=run.mf_i.z.at(T0))
    result = recover_errors(problem)
    assert np.linalg.norm(result.E_bar - E_BAR) / np.linalg.norm(E_BAR) < 1e-6
    assert np.linalg.norm(result.E_i - E_I) / np.linalg.norm(E_I) < 1e-6
    npt.assert_allclose(result.z_A_t0, run.z_A.at(T0), atol=1e-6)
    assert result.residual < 1e-6


def test_unidentifiable_problem_raises(params, z0):
    # without mean-field coupling the drift residual carries no information
    decoupled = params.with_(C=np.zeros((2, 2)), F=np.zeros((2, 2)))
    grid = decoupled.default_grid(200)
    bundle = RiccatiBundle.solve(decoupled, grid)
    maps = build_maps(bundle)
    run = solve_limiting(bundle, z0, E_I, E_BAR)
    ob1 = residual_path(run.observable(), run.mf_i.z, run.g_i, bundle)
    problem = build_correction_problem(maps, ob1, T0, run.mf_i.z.at(T0))
    assert identifiability(problem)["rank"] == 0
    with pytest.raises(IdentifiabilityError):
        recover_errors(problem)


@pytest.mark.parametrize("ratio, rank", [(2e-8, 4), (5e-9, 3)])
def test_identifiability_and_recovery_count_the_same_rank(bundle, ratio, rank):
    # a 16 x 4 stack whose smallest singular value is ratio times the
    # largest, either side of the cutoff SV_TOL = 1e-8
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((16, 4)))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    K = U * np.array([1.0, 0.5, 0.1, ratio]) @ V.T
    problem = CorrectionProblem(bundle=bundle, t0=T0, stacked_K=K,
                                stacked_Ob1=K @ np.array([0.4, -0.4, 0.2, 0.1]),
                                z_i_t0=np.zeros(2))
    assert identifiability(problem) == {"rank": rank, "identifiable": rank == 4}
    if rank == 4:
        assert recover_errors(problem).rank == 4
    else:
        with pytest.raises(IdentifiabilityError, match="rank 3 < 4"):
            recover_errors(problem)


def test_modified_game_restarts_from_reconstructed_state(bundle, run, grid):
    z_A_t0 = run.z_A.at(T0)
    mod = modified_game(bundle, z_A_t0, T0)
    npt.assert_array_equal(mod["z_new"].initial, z_A_t0)
    assert mod["z_new"].grid.t_start == pytest.approx(T0)
    assert mod["law"].grid.t_start == pytest.approx(T0)
    # correction shrinks the residual mean-field deviation everywhere
    k0 = grid.index_of(T0)
    dev_new = np.abs(mod["z_new"].values - run.z_c.z.values[k0:]).max()
    dev_old = np.abs(run.z_A.values[k0:] - run.z_c.z.values[k0:]).max()
    assert dev_new < dev_old


def test_post_correction_deviation_matches_transition_formula(
        maps, bundle, run, grid):
    mod = modified_game(bundle, run.z_A.at(T0), T0)
    k0 = grid.index_of(T0)
    direct = mod["z_new"].values - run.z_c.z.values[k0:]
    predicted = corrected_mf_deviation(maps, T0, E_BAR)
    assert np.max(np.abs(predicted.values - direct)) < 1e-6


def test_post_correction_offset_map(maps, params, bundle, run, law_c, grid):
    mod = modified_game(bundle, run.z_A.at(T0), T0)
    k0 = grid.index_of(T0)
    direct = mod["g_new"].values - law_c.g.values[k0:]
    M = modified_offset_map(maps, T0)
    predicted = np.einsum("kij,j->ki", M.values, E_BAR)
    assert np.max(np.abs(predicted - direct)) < 1e-6


def _offset_map_by_ode(bundle, t0):
    """The post-correction offset map as the backward ODE of Mg driven by
    the post-correction mean-field deviation Phi1(t) Phi1(t0)^-1 Mz(t0)."""
    params, k0 = bundle.params, bundle.grid.index_of(t0)
    dPhi = bundle.Phi1.values[k0:] @ np.linalg.solve(bundle.Phi1[k0], bundle.Mz[k0])
    S = coupling_weight(params, bundle.P1)[k0:]
    Hg = offset_generator(params, bundle.P1.values[k0:], params.BFRB)
    MT = -params.Qbar @ params.Gammabar @ dPhi[-1]
    return rk4_affine(Hg, -(S @ dPhi), MT, bundle.grid.subgrid(k0), forward=False)


@pytest.mark.parametrize("fixture", ["maps", "mixed_maps"])
@pytest.mark.parametrize("t0", [0.5, 1.0, 1.5])
def test_modified_offset_map_is_the_backward_ode_solution(request, fixture, t0):
    # the map is the closed form (P0 - P1) Phi1 Phi1(t0)^-1 Mz(t0), and its
    # gap to the backward ODE's RK4 solve is truncation error that falls
    # with the grid
    maps = request.getfixturevalue(fixture)
    k0 = maps.grid.index_of(t0)
    M = modified_offset_map(maps, t0)
    P2Phi1 = (maps.P0.values - maps.P1.values) @ maps.Phi1.values
    want = P2Phi1[k0:] @ np.linalg.solve(maps.Phi1[k0], maps.Mz[k0])
    assert M.grid.t_start == t0 and M.values.shape == want.shape
    assert np.max(np.abs(M.values - want)) <= 1e-13 * np.max(np.abs(want))
    coarse = build_maps(RiccatiBundle.solve(maps.params, maps.params.default_grid(200)))
    gaps = [np.max(np.abs(modified_offset_map(m, t0).values - _offset_map_by_ode(m, t0)))
            for m in (coarse, maps)]
    assert maps.grid.steps == 2000 and gaps[1] * 50.0 <= gaps[0]
