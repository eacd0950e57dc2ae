"""Finite-population sampling, simulation, and replay."""

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.core import FeedbackLaw
from mfg_errsim.core import equilibrium_law, equilibrium_mf
from mfg_errsim.errors import GridMismatchError, IntegrationBlowupError
from mfg_errsim.grid import MatrixPath, VectorPath
from mfg_errsim.params import P6_ERROR_COV, P6_INIT_COV, P6_Z0, SystemParams, s1_params
from mfg_errsim.riccati import RiccatiBundle
from mfg_errsim.population import (
    OffsetFamilyLaw,
    euler_maruyama,
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


def _general_set(n, d):
    """A fixed set with non-commuting A and C, non-square B and F and a
    full noise matrix, with its equilibrium law on a 60-step grid."""
    rng = np.random.default_rng(10 * n + d)
    A = -np.eye(n) + 0.4 * rng.standard_normal((n, n))
    C = 0.3 * rng.standard_normal((n, n))
    assert n == 1 or np.linalg.norm(A @ C - C @ A) > 1e-2
    L = rng.standard_normal((d, d))
    I = np.eye(n)
    p = SystemParams(
        A=A, B=rng.standard_normal((n, d)), C=C, F=0.3 * rng.standard_normal((n, d)),
        D=0.2 * rng.standard_normal((n, n)), Q_I=I, Q=I, Qbar_I=I, Qbar=I,
        R=np.eye(d) + 0.3 * L @ L.T, Gamma=0.5 * I, Gammabar=0.5 * I,
        eta=np.zeros(n), etabar=np.zeros(n), s=np.ones(n), sbar=np.ones(n), T=1.0,
    )
    bundle = RiccatiBundle.solve(p, p.default_grid(60))
    law = equilibrium_law(bundle, equilibrium_mf(bundle, np.ones(n)))
    return p, bundle, law, rng


def _family(n, d, N):
    """_general_set with a per-agent offset law for N agents and their
    population."""
    p, bundle, law, rng = _general_set(n, d)
    Mg = MatrixPath(bundle.grid, rng.standard_normal((61, n, n)))
    fam = OffsetFamilyLaw(p, bundle.P1, law.g, Mg, rng.standard_normal((N, n)))
    pop = [(x0, e) for x0, e in zip(rng.standard_normal((N, n)), fam.errors)]
    return p, law, fam, pop


@pytest.mark.parametrize("N", [7, 300])
@pytest.mark.parametrize("n, d", [(3, 2), (1, 1)])
def test_simulated_means_are_numpy_means_bit_for_bit(n, d, N):
    p, law, fam, pop = _family(n, d, N)
    prescribed = (VectorPath(law.grid, np.ones((61, n))),
                  VectorPath(law.grid, np.ones((61, d))))
    for coupling in ("empirical", prescribed):
        res = simulate(p, pop, fam, mf_coupling=coupling, seed=5)
        npt.assert_array_equal(res.x_N.values, np.mean(res.xs, axis=1))
        npt.assert_array_equal(res.u_N.values, np.mean(res.us, axis=1))


@pytest.mark.parametrize("N", [7, 300])
@pytest.mark.parametrize("n, d", [(3, 2), (1, 1)])
def test_empirical_coupling_is_the_plain_node_mean(n, d, N):
    p, law, fam, pop = _family(n, d, N)
    x0 = np.array([x for x, _ in pop])
    nodes = 0
    for k, x, u, drift, mf_x in euler_maruyama(p, x0, law.grid, fam.at_node, seed=5):
        npt.assert_array_equal(mf_x, x.sum(axis=0) / N)
        mf_u = u.sum(axis=0) / N
        expected = x @ p.A.T + u @ p.B.T + mf_x @ p.C.T + mf_u @ p.F.T
        npt.assert_array_equal(drift, expected)
        nodes += 1
    assert nodes == law.grid.steps + 1


def _zero_law(p, grid):
    K = grid.steps
    return FeedbackLaw(params=p, P1=MatrixPath(grid, np.zeros((K + 1, p.n, p.n))),
                       g=VectorPath(grid, np.zeros((K + 1, p.n))))


def test_finite_states_whose_node_sum_overflows_do_not_raise():
    p, bundle, _, _ = _general_set(3, 2)
    zero = p.with_(A=np.zeros((3, 3)), B=np.zeros((3, 2)), C=np.zeros((3, 3)),
                   F=np.zeros((3, 2)))
    grid = bundle.grid
    x0 = np.zeros((7, 3))
    x0[[1, 4], 0] = 1e308
    coupling = (np.zeros((61, 3)), np.zeros((61, 2)))
    last = None
    for k, x, _, _, _ in euler_maruyama(zero, x0, grid, _zero_law(zero, grid).at_node,
                                        coupling, D=0.0):
        last = k
        npt.assert_array_equal(x, x0)
    assert last == grid.steps


class _PoisonedLaw:
    """A law whose control of one agent at one node is infinite."""

    def __init__(self, law, agent, node):
        self.law, self.agent, self.node = law, agent, node

    @property
    def grid(self):
        return self.law.grid

    def at_node(self, x, k):
        u = self.law.at_node(x, k)
        if k == self.node:
            u[self.agent] = np.inf
        return u


@pytest.mark.filterwarnings("ignore:invalid value")
def test_a_non_finite_control_names_the_agent_and_the_next_node():
    p, law, _, pop = _family(3, 2, 7)
    coupling = (VectorPath(law.grid, np.zeros((61, 3))),
                VectorPath(law.grid, np.zeros((61, 2))))
    with pytest.raises(IntegrationBlowupError, match="agent 3 state non-finite at node 6") as ei:
        simulate(p, pop, _PoisonedLaw(law, 3, 5), mf_coupling=coupling, seed=5)
    assert ei.value.node == 6 and ei.value.time == law.grid.times[6]
