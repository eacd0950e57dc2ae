"""Finite-population sampling, simulation, and replay."""

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.core import FeedbackLaw
from mfg_errsim.core import equilibrium_law, equilibrium_mf
from mfg_errsim.errors import GridMismatchError, IntegrationBlowupError
from mfg_errsim.grid import MatrixPath, VectorPath
from mfg_errsim.params import P6_ERROR_COV, P6_INIT_COV, P6_Z0, s1_params
from mfg_errsim.riccati import RiccatiBundle
from mfg_errsim.population import (
    OffsetFamilyLaw,
    replay_agent,
    sample_population,
    simulate,
)


def _pop(N, seed=0):
    return sample_population(
        N, init_mean=P6_Z0, init_cov=P6_INIT_COV,
        error_mean=np.zeros(2), error_cov=P6_ERROR_COV, seed=seed,
    )


def test_sampling_is_reproducible_and_order_independent():
    a = _pop(50)
    b = _pop(800)
    # per-agent streams: agent i's draws do not depend on the population size
    for i in range(50):
        npt.assert_array_equal(a[i][0], b[i][0])
        npt.assert_array_equal(a[i][1], b[i][1])
    c = _pop(50, seed=1)
    assert not np.array_equal(a[0][0], c[0][0])


def test_sampling_validates_inputs():
    with pytest.raises(ValueError):
        sample_population(0, P6_Z0, P6_INIT_COV, np.zeros(2), P6_ERROR_COV, 0)
    with pytest.raises(ValueError, match="symmetric"):
        sample_population(2, P6_Z0, np.array([[1.0, 0.5], [0.0, 1.0]]),
                          np.zeros(2), P6_ERROR_COV, 0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        sample_population(2, P6_Z0, -np.eye(2), np.zeros(2), P6_ERROR_COV, 0)


def test_zero_covariance_sampling_is_deterministic():
    pop = sample_population(3, P6_Z0, np.zeros((2, 2)), np.ones(2),
                            np.zeros((2, 2)), seed=7)
    for x0, E in pop:
        npt.assert_array_equal(x0, P6_Z0)
        npt.assert_array_equal(E, np.ones(2))


def test_simulation_is_seed_deterministic(params, grid, law_c):
    pop = _pop(20)
    r1 = simulate(params, pop, law_c, grid=grid, seed=3)
    r2 = simulate(params, pop, law_c, grid=grid, seed=3)
    npt.assert_array_equal(r1.x_N.values, r2.x_N.values)
    npt.assert_array_equal(r1.traces[5].x.values, r2.traces[5].x.values)
    r3 = simulate(params, pop, law_c, grid=grid, seed=4)
    assert not np.array_equal(r1.x_N.values, r3.x_N.values)


def test_noiseless_population_tracks_equilibrium(params, grid, law_c, mf_c):
    pop = [(np.asarray(P6_Z0, dtype=float), np.zeros(2)) for _ in range(3)]
    res = simulate(params, pop, law_c, grid=grid, seed=0, D=0.0)
    # first-order time stepping against the RK4 reference
    assert np.max(np.abs(res.x_N.values - mf_c.z.values)) < 5e-3


def test_prescribed_mean_field_coupling(params, grid, law_c, mf_c):
    pop = [(np.asarray(P6_Z0, dtype=float), np.zeros(2))]
    res = simulate(params, pop, law_c, mf_coupling=(mf_c.z, mf_c.ubar),
                   grid=grid, seed=0, D=0.0)
    assert np.max(np.abs(res.x_N.values - mf_c.z.values)) < 5e-3


def test_replay_reproduces_original_trace(params, grid, law_c, mf_c):
    pop = _pop(5)
    res = simulate(params, pop, law_c, mf_coupling=(mf_c.z, mf_c.ubar),
                   grid=grid, seed=11)
    tr = res.traces[2]
    x, u = replay_agent(params, tr, law_c, mf_c.z, mf_c.ubar, grid, seed=11)
    npt.assert_allclose(x.values, tr.x.values, atol=1e-12)
    npt.assert_allclose(u.values, tr.u.values, atol=1e-12)


def test_offset_family_law_matches_shared_law_for_zero_errors(
        params, grid, law_c, maps):
    pop = _pop(10)
    fam = OffsetFamilyLaw(params, law_c.P1, law_c.g, maps.Mg,
                          errors=np.zeros((10, 2)))
    r1 = simulate(params, pop, law_c, grid=grid, seed=2)
    r2 = simulate(params, pop, fam, grid=grid, seed=2)
    npt.assert_allclose(r1.x_N.values, r2.x_N.values, atol=1e-12)


def test_offset_family_law_shifts_controls_with_errors(params, grid, law_c, maps):
    errors = np.array([[0.3, -0.2]])
    fam = OffsetFamilyLaw(params, law_c.P1, law_c.g, maps.Mg, errors=errors)
    x = np.asarray([P6_Z0], dtype=float)
    k = grid.index_of(0.5)
    expected = -(x @ law_c.P1[k].T + law_c.g[k] + maps.Mg[k] @ errors[0]) \
        @ params.RinvBt.T
    npt.assert_allclose(fam.at_node(x, k), expected, atol=1e-14)


def test_simulation_runs_on_the_grid_of_its_law(params, grid, law_c):
    pop = _pop(4)
    res = simulate(params, pop, law_c, seed=1)
    assert res.grid is law_c.grid and res.xs.shape[0] == grid.steps + 1
    npt.assert_array_equal(res.xs, simulate(params, pop, law_c, grid=grid, seed=1).xs)


def test_simulation_rejects_a_grid_that_does_not_match(params, grid, law_c, mf_c):
    pop = _pop(3)
    coarse = params.default_grid(100)
    with pytest.raises(GridMismatchError):
        simulate(params, pop, law_c, grid=coarse, seed=0)
    coarse_bundle = RiccatiBundle.solve(params, coarse)
    coarse_mf = equilibrium_mf(coarse_bundle, P6_Z0)
    with pytest.raises(GridMismatchError):
        simulate(params, pop, equilibrium_law(coarse_bundle, coarse_mf),
                 mf_coupling=(mf_c.z, mf_c.ubar), seed=0)
    with pytest.raises(GridMismatchError):
        simulate(params, pop, law_c, mf_coupling=(coarse_mf.z, coarse_mf.ubar),
                 seed=0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_unstable_dynamics_raise_blowup():
    one = np.eye(1)
    p = s1_params().with_(A=4000.0 * one)
    grid = p.default_grid(2000)
    zeros_m = MatrixPath(grid, np.zeros((2001, 1, 1)))
    zeros_v = VectorPath(grid, np.zeros((2001, 1)))
    law = FeedbackLaw(params=p, P1=zeros_m, g=zeros_v)
    pop = [(np.ones(1), np.zeros(1))]
    with pytest.raises(IntegrationBlowupError):
        simulate(p, pop, law, grid=grid, seed=0, D=0.0)
