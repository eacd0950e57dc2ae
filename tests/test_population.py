"""Finite-population sampling, simulation, and replay."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.core import FeedbackLaw
from mfg_errsim.core import equilibrium_law, equilibrium_mf
from mfg_errsim.errors import (
    GridMismatchError,
    IntegrationBlowupError,
    MfgError,
    ParamsMismatchError,
    PopulationError,
)
from mfg_errsim.grid import MatrixPath, VectorPath
from mfg_errsim.params import (
    P6_ERROR_COV,
    P6_INIT_COV,
    P6_Z0,
    SystemParams,
    p6_params,
    s1_params,
)
from mfg_errsim.realtime import (
    build_kernels,
    hold_initial_error_policy,
    realtime_simulate,
    truth_policy,
)
from mfg_errsim.riccati import RiccatiBundle, agent_generator, control, mf_generator
from mfg_errsim import population
from mfg_errsim.population import (
    _DYNAMICS,
    _NOISE_BLOCK,
    _RUN,
    _SAMPLING,
    OffsetFamilyLaw,
    agent_sum,
    sample_population,
    simulate,
)


def _control_at(law):
    """The controls u = -R^-1 B' (P1 x + g_i) of the states x (N, n) at node
    k, g_i = g + Mg E_i for a per-agent offset law: the law in its own
    terms rather than its affine form, for the reference loop."""
    def control_at(x, k):
        g = law.g[k]
        if law.error_gain is not None:
            g = g + law.errors @ law.Mg[k].T
        return control(law.params, law.P1[k], x, g)
    return control_at


def _stream(seed, purpose):
    """The seed's stream of a purpose from its own SeedSequence, spawn key
    (purpose,): the oracle for population._stream.  The _RUN stream's
    normals g_k give the node sums sqrt(N) g_k of a run's agents' noise."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose,))
    return np.random.Generator(np.random.PCG64(ss))


def _pop(N, seed=0):
    return sample_population(
        N, init_mean=P6_Z0, init_cov=P6_INIT_COV,
        error_mean=np.zeros(2), error_cov=P6_ERROR_COV, seed=seed,
    )


def test_sampling_is_reproducible_and_order_independent():
    a = _pop(50)
    b = _pop(800)
    # rows of one draw: agent i's draws do not depend on the population size
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


@pytest.mark.parametrize("seed", [-1, 1.5, [1, 2]], ids=["negative", "float", "list"])
def test_a_seed_that_is_not_a_non_negative_int_is_a_population_error(
        params, bundle, law_c, seed):
    # before, a noiseless run took any seed, and a noisy one raised numpy's
    # ValueError or TypeError from its SeedSequence
    match = rf"seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    pop = _pop(5)
    _assert_population_error(match, lambda: sample_population(
        2, P6_Z0, P6_INIT_COV, np.zeros(2), P6_ERROR_COV, seed))
    for D in (None, 0.0):
        _assert_population_error(match, lambda: simulate(params, pop, law_c, seed=seed, D=D))
        _assert_population_error(match, lambda: realtime_simulate(
            params, bundle, pop, truth_policy(), seed=seed, D=D))
    # numpy integers and seeds wider than one entropy word are seeds
    for seed in (np.int64(3), 2**200 + 1):
        sample_population(2, P6_Z0, P6_INIT_COV, np.zeros(2), P6_ERROR_COV, seed)


@pytest.mark.parametrize("N", [1, 2, 500])
@pytest.mark.parametrize("n", [2, 3])
def test_sampling_is_the_per_agent_draw_bit_for_bit(n, N):
    # non-diagonal covariances: z @ L.T or an einsum over the agents moves
    # the draws by an ulp against L @ each agent's own draws
    rng = np.random.default_rng(n)
    A, B = rng.standard_normal((2, n, n))
    init_cov, error_cov = A @ A.T + 0.1 * np.eye(n), B @ B.T
    init_mean, error_mean = rng.standard_normal((2, n))
    L_init, L_err = np.linalg.cholesky(init_cov), np.linalg.cholesky(error_cov)
    seed = 2**32 + 3
    pop = sample_population(N, init_mean, init_cov, error_mean, error_cov, seed)
    assert len(pop) == N
    draws = _stream(seed, _SAMPLING).standard_normal((N, 2 * n))
    for (x0, E), z in zip(pop, draws):
        npt.assert_array_equal(x0, init_mean + L_init @ z[:n])
        npt.assert_array_equal(E, error_mean + L_err @ z[n:])


def test_a_tiny_covariance_keeps_its_spread():
    # before, any covariance within 1e-8 of zero sampled as exactly zero
    x0, E = np.array(sample_population(2000, np.zeros(2), 1e-10 * np.eye(2), np.ones(2),
                                       1e-10 * np.eye(2), seed=4)).transpose(1, 0, 2)
    npt.assert_allclose(x0.std(axis=0), 1e-5, rtol=0.1)
    npt.assert_allclose((E - 1.0).std(axis=0), 1e-5, rtol=0.1)


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
    x, u = res.replay(2, law_c, mf_c.z, mf_c.ubar)
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
    affine = x @ fam.gain[k].T + fam.offset[k] + errors @ fam.error_gain[k].T
    npt.assert_allclose(affine, expected, atol=1e-14)
    npt.assert_allclose(_control_at(fam)(x, k), expected, atol=1e-14)


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


def _general_set(n, d, K=60):
    """A fixed set with non-commuting A and C, non-square B and F and a
    full noise matrix, with its equilibrium law on a K-step grid."""
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
    bundle = RiccatiBundle.solve(p, p.default_grid(K))
    law = equilibrium_law(bundle, equilibrium_mf(bundle, np.ones(n)))
    return p, bundle, law, rng


def _family(n, d, N, K=60):
    """_general_set with a per-agent offset law for N agents and their
    population."""
    p, bundle, law, rng = _general_set(n, d, K)
    Mg = MatrixPath(bundle.grid, rng.standard_normal((K + 1, n, n)))
    fam = OffsetFamilyLaw(p, bundle.P1, law.g, Mg, rng.standard_normal((N, n)))
    pop = [(x0, e) for x0, e in zip(rng.standard_normal((N, n)), fam.errors)]
    return p, law, fam, pop


@pytest.mark.parametrize("N", [7, 300])
@pytest.mark.parametrize("n, d", [(3, 2), (1, 1)])
def test_simulated_means_are_the_means_of_the_paths_to_rounding(n, d, N):
    # the node means come from the agents' summed rows by linearity, not from
    # their paths, so they are numpy's mean of the paths to rounding
    p, law, fam, pop = _family(n, d, N, 2 * _NOISE_BLOCK + 3)
    for lw in (law, fam):
        for _, coupling in _couplings(law, n, d):
            for D in (None, 0.0):
                res = simulate(p, pop, lw, mf_coupling=coupling, seed=5, D=D)
                for mean, paths in ((res.x_N, res.xs), (res.u_N, res.us)):
                    npt.assert_allclose(mean.values, np.mean(paths, axis=1), rtol=0,
                                        atol=1e-13 * np.abs(paths).max())


def _realtime_loop(p, bundle, pop, policy, seed, D=None):
    """Reference realtime node loop in plain numpy terms: node means by
    sum / N, transposed views, the agents' dynamics noise (K, N, n) drawn at
    once.  Returns (z_A, Ebar, Ebar1)."""
    x = np.array([x0 for x0, _ in pop])
    N, n = x.shape
    grid = bundle.grid
    K, dt = grid.steps, grid.dt
    D = p.D if D is None else np.eye(n) * D
    noise = _stream(seed, _DYNAMICS).standard_normal((K, N, n))
    kernels = build_kernels(bundle)
    z_c = equilibrium_mf(bundle, x.sum(axis=0) / N).z.values
    g_c = np.einsum("kij,kj->ki", bundle.P0.values - bundle.P1.values, z_c) + bundle.G.values
    out = np.empty((3, K + 1, n))
    for k in range(K + 1):
        E_own, E_avg = (np.broadcast_to(e, (N, n)) for e in policy(np.arange(N), k,
                                                                  grid.times[k]))
        out[:, k] = x.sum(axis=0) / N, E_own.sum(axis=0) / N, E_avg.sum(axis=0) / N
        if k < K:
            g = E_own @ kernels.Mig_diag[k].T + g_c[k] + E_avg @ kernels.M0g_diag[k].T
            u = control(p, bundle.P1[k], x, g)
            drift = x @ p.A.T + u @ p.B.T + out[0, k] @ p.C.T + (u.sum(axis=0) / N) @ p.F.T
            x = x + drift * dt
            if not np.allclose(D, 0.0):
                x = x + (noise[k] @ D.T) * np.sqrt(dt)
    return out


def _realtime_set(n, d, N, K):
    """_general_set on a K-step grid, with a population of N and a policy
    whose two errors are per agent."""
    p, bundle, _, rng = _general_set(n, d, K)
    errors, avg = rng.standard_normal((2, N, n))
    pop = [(x0, e) for x0, e in zip(rng.standard_normal((N, n)), errors)]
    return p, bundle, pop, hold_initial_error_policy(errors, avg)


def _assert_realtime_is_the_loop(p, bundle, pop, policy, D):
    res = realtime_simulate(p, bundle, pop, policy, seed=5, D=D)
    z_A, Ebar, Ebar1 = _realtime_loop(p, bundle, pop, policy, seed=5, D=D)
    npt.assert_array_equal(res["z_A"].values, z_A)
    npt.assert_array_equal(res["Ebar"].values, Ebar)
    npt.assert_array_equal(res["Ebar1"].values, Ebar1)


@pytest.mark.parametrize("N", [7, 300])
@pytest.mark.parametrize("n, d", [(3, 2), (1, 1)])
def test_empirical_coupling_is_the_plain_node_mean(n, d, N):
    # realtime steps each node with the plain node means of the states and
    # controls, in the plain order of the drift's terms
    _assert_realtime_is_the_loop(*_realtime_set(n, d, N, 60), D=0.0)


@pytest.mark.parametrize("N", [9, 300])
@pytest.mark.parametrize("n, d", [(3, 2), (1, 1)])
def test_noisy_realtime_run_is_the_plain_node_loop_bit_for_bit(n, d, N):
    # the noise buffer refills twice mid-run, and its blocks continue the
    # one (K, N, n) draw
    _assert_realtime_is_the_loop(*_realtime_set(n, d, N, 2 * _NOISE_BLOCK + 3), D=None)


def test_finite_states_whose_node_sum_overflows_do_not_raise():
    # no dynamics, no control and zero coupling: every state stays at x0,
    # whose node sum is infinite while every state is finite
    p, bundle, _, _ = _general_set(3, 2)
    zero = p.with_(A=np.zeros((3, 3)), B=np.zeros((3, 2)), C=np.zeros((3, 3)),
                   F=np.zeros((3, 2)))
    grid = bundle.grid
    law = FeedbackLaw(params=zero, P1=MatrixPath(grid, np.zeros((61, 3, 3))),
                      g=VectorPath(grid, np.zeros((61, 3))))
    x0 = np.zeros((7, 3))
    x0[[1, 4], 0] = 1e308
    coupling = (np.zeros((61, 3)), np.zeros((61, 2)))
    # simulate's node means, and so its result, would be infinite
    x_sum, _, _, (xs, _) = population._step_agents(law, x0, range(7), coupling,
                                                   seed=0, D=0.0, paths=True)
    assert np.isinf(x_sum[:, 0]).all()
    npt.assert_array_equal(xs, np.broadcast_to(x0, xs.shape))


def _overflowing_p6_run(K=200):
    """P6 at K steps with seven agents, two of them at x0 = (1e308, 0), so
    that the node sum of their finite states overflows at node 0."""
    p = p6_params()
    bundle = RiccatiBundle.solve(p, p.default_grid(K))
    mf = equilibrium_mf(bundle, P6_Z0)
    pop = [(np.zeros(2), np.zeros(2)) for _ in range(7)]
    for i in (1, 4):
        pop[i] = (np.array([1e308, 0.0]), np.zeros(2))
    return p, bundle, mf, pop


def _assert_mean_overflow(node, run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationBlowupError,
                           match=f"mean of finite states overflowed at node {node}$") as ei:
            run()
    assert ei.value.node == node


def test_a_simulated_mean_that_overflows_names_its_node():
    p, bundle, mf, pop = _overflowing_p6_run()
    law = equilibrium_law(bundle, mf)
    for coupling in ((mf.z, mf.ubar), "empirical"):
        _assert_mean_overflow(0, lambda: simulate(p, pop, law, mf_coupling=coupling, D=0.0))
    # states that grow, finite, until their node sum overflows at node 84
    flat = p.with_(A=0.3 * np.eye(2), C=np.zeros((2, 2)), F=np.zeros((2, 2)))
    grid = bundle.grid
    law = FeedbackLaw(params=flat, P1=MatrixPath(grid, np.zeros((201, 2, 2))),
                      g=VectorPath(grid, np.zeros((201, 2))))
    pop = [(x0 * 0.7, E) for x0, E in pop]
    zero = (VectorPath(grid, np.zeros((201, 2))), VectorPath(grid, np.zeros((201, 2))))
    for coupling in (zero, "empirical"):
        _assert_mean_overflow(84, lambda: simulate(flat, pop, law, mf_coupling=coupling, D=0.0))


@pytest.mark.parametrize("D", [None, 0.0])
def test_a_blowup_whose_node_sums_cancel_names_its_node_and_agent(D):
    # two agents at x0 = (+-1.2e308, 0) under A = 0.3 I: their node sum stays
    # zero while each state grows past the largest double at node 135
    p, bundle, _, pop = _overflowing_p6_run()
    flat = p.with_(A=0.3 * np.eye(2), C=np.zeros((2, 2)), F=np.zeros((2, 2)))
    grid = bundle.grid
    law = FeedbackLaw(params=flat, P1=MatrixPath(grid, np.zeros((201, 2, 2))),
                      g=VectorPath(grid, np.zeros((201, 2))))
    for i, x in ((1, 1.2e308), (4, -1.2e308)):
        pop[i] = (np.array([x, 0.0]), np.zeros(2))
    zero = (VectorPath(grid, np.zeros((201, 2))), VectorPath(grid, np.zeros((201, 2))))
    for coupling in (zero, "empirical"):
        with pytest.raises(IntegrationBlowupError,
                           match="agent 1 state non-finite at node 135$") as ei:
            simulate(flat, pop, law, mf_coupling=coupling, D=D)
        assert ei.value.node == 135


@pytest.mark.parametrize("D", [None, 0.0])
def test_a_run_whose_bound_fails_on_finite_states_is_redone_with_paths(monkeypatch, D):
    # two agents at x0 = (+-7e307, 0) under A = 0.3 I: each state grows to
    # about 1.3e308, finite but past what the norm bound can show finite,
    # while their node sum stays near zero
    p, bundle, _, pop = _overflowing_p6_run()
    flat = p.with_(A=0.3 * np.eye(2), C=np.zeros((2, 2)), F=np.zeros((2, 2)))
    grid = bundle.grid
    law = FeedbackLaw(params=flat, P1=MatrixPath(grid, np.zeros((201, 2, 2))),
                      g=VectorPath(grid, np.zeros((201, 2))))
    for i, x in ((1, 7e307), (4, -7e307)):
        pop[i] = (np.array([x, 0.0]), np.zeros(2))
    x0 = np.array([x for x, _ in pop])
    zero = (VectorPath(grid, np.zeros((201, 2))), VectorPath(grid, np.zeros((201, 2))))
    step_agents = population._step_agents
    calls = _spy_step_agents(monkeypatch)
    for coupling, arrays in ((zero, tuple(p.values for p in zero)), ("empirical", None)):
        calls.clear()
        res = simulate(flat, pop, law, mf_coupling=coupling, D=D)
        assert calls == [(7, False), (7, True)]
        x_sum, u_sum, _, (xs, _) = step_agents(law, x0, range(7), arrays, 0, D, paths=True)
        assert np.isfinite(xs).all() and np.abs(xs).max() > population._STATE_BOUND
        npt.assert_array_equal(res.x_N.values, x_sum / 7)
        npt.assert_array_equal(res.u_N.values, u_sum / 7)
        # the result keeps the paths run's paths: reading them steps no agent
        npt.assert_array_equal(res.xs, xs)
        assert calls == [(7, False), (7, True)]


def test_a_realtime_mean_that_overflows_names_its_node():
    p, bundle, _, pop = _overflowing_p6_run()
    _assert_mean_overflow(0, lambda: realtime_simulate(p, bundle, pop, truth_policy(), D=0.0))


class _PoisonedLaw(OffsetFamilyLaw):
    """An affine law whose offset of one agent at one node is infinite: its
    Mg is zero but at that node, where it overflows on that agent's error,
    and the other agents' errors are zero."""

    def __init__(self, law, agent, node, N):
        Mg = np.zeros(law.P1.values.shape)
        Mg[node] = 1e300
        errors = np.zeros((N, law.params.n))
        errors[agent, 0] = 1e300
        super().__init__(law.params, law.P1, law.g, MatrixPath(law.grid, Mg), errors)


def test_a_non_finite_control_names_the_agent_and_the_next_node():
    p, law, _, pop = _family(3, 2, 7)
    coupling = (VectorPath(law.grid, np.zeros((61, 3))),
                VectorPath(law.grid, np.zeros((61, 2))))
    poisoned = _PoisonedLaw(law, 3, 5, len(pop))
    with np.errstate(over="ignore"):
        offsets = (poisoned.offset[:, None]
                   + poisoned.errors @ np.swapaxes(poisoned.error_gain, 1, 2))
    assert np.isinf(offsets[5, 3]).all() and np.isfinite(np.delete(offsets, 5, 0)).all()
    assert np.isfinite(np.delete(offsets, 3, 1)).all()
    with pytest.raises(IntegrationBlowupError, match="agent 3 state non-finite at node 6") as ei:
        simulate(p, pop, poisoned, mf_coupling=coupling, seed=5)
    assert ei.value.node == 6 and ei.value.time == law.grid.times[6]


def _one_draw_noise(seed, N, K, n):
    """Every agent's noise n_ik - nbar_k + S_k / N, (K, N, n): the dynamics
    draw n and the run's sums S = sqrt(N) g each drawn at once, nbar the
    agents' mean."""
    noise = _stream(seed, _DYNAMICS).standard_normal((K, N, n))
    S = np.sqrt(N) * _stream(seed, _RUN).standard_normal((K, n))
    return noise - noise.mean(axis=1, keepdims=True) + S[:, None] / N


def _one_draw_run(p, pop, law, coupling, seed, D=None, noise=None):
    """Reference Euler-Maruyama loop: every agent's noise (K, N, n) drawn
    at once (_one_draw_noise, unless given), the drift stored at every
    node.  Returns (xs, us, drifts)."""
    x = np.array([x0 for x0, _ in pop])
    N, n = x.shape
    grid = law.grid
    K, dt = grid.steps, grid.dt
    D = p.D if D is None else np.eye(n) * D
    At, Bt, Dt = (np.ascontiguousarray(M.T) for M in (p.A, p.B, D))
    if noise is None:
        noise = _one_draw_noise(seed, N, K, n)
    control_at = _control_at(law)
    xs, us, drifts = [], [], []
    for k in range(K + 1):
        u = control_at(x, k)
        if coupling is None:
            mf_x, mf_u = agent_sum(x) / N, agent_sum(u) / N
        else:
            mf_x, mf_u = coupling[0][k], coupling[1][k]
        drift = x @ At
        drift += u @ Bt
        drift += mf_x @ p.C.T
        drift += mf_u @ p.F.T
        xs.append(x)
        us.append(u)
        drifts.append(drift)
        if k < K:
            x_next = drift * dt
            x_next += x
            if not np.allclose(D, 0.0):
                dW = noise[k] @ Dt
                dW *= np.sqrt(dt)
                x_next += dW
            x = x_next
    return np.array(xs), np.array(us), np.array(drifts)


def _couplings(law, n, d):
    """(node arrays or None, simulate's mf_coupling) of the empirical and of
    a prescribed coupling on the law's grid."""
    grid = law.grid
    t = grid.times[:, None]
    z, ubar = np.cos(t) * np.ones((1, n)), np.sin(t) * np.ones((1, d))
    return [(None, "empirical"),
            ((z, ubar), (VectorPath(grid, z), VectorPath(grid, ubar)))]


def _assert_matches_the_loop(res, xs, us):
    # the scan composes the steps in another order than the node loop, so
    # the two agree to rounding, not bit for bit
    npt.assert_allclose(res.xs, xs, rtol=0, atol=1e-13)
    npt.assert_allclose(res.us, us, rtol=0, atol=1e-13)


@pytest.mark.parametrize("K", [1, _NOISE_BLOCK - 1, _NOISE_BLOCK, _NOISE_BLOCK + 1,
                               2 * _NOISE_BLOCK + 3])
def test_block_noise_run_equals_the_one_draw_loop_bit_for_bit(K):
    # the block draws are the one-draw streams bit for bit; the states agree
    # to rounding for either law, either coupling, with and without noise
    for n, d in ((3, 2), (1, 1)):
        p, law, fam, pop = _family(n, d, 9, K)
        for lw in (law, fam):
            for coupling, paths in _couplings(law, n, d):
                for D in (None, 0.0):
                    res = simulate(p, pop, lw, mf_coupling=paths, seed=5, D=D)
                    xs, us, _ = _one_draw_run(p, pop, lw, coupling, seed=5, D=D)
                    _assert_matches_the_loop(res, xs, us)


def test_a_stiff_run_at_the_euler_edge_matches_the_one_draw_loop():
    # dt |lambda| of the closed loop near 0.9, so I + dt H is near singular
    p, _, _, rng = _general_set(3, 2)
    p = p.with_(A=p.A - 230.0 * np.eye(3))
    bundle = RiccatiBundle.solve(p, p.default_grid(2 * _NOISE_BLOCK + 3))
    law = equilibrium_law(bundle, equilibrium_mf(bundle, np.ones(3)))
    edge = bundle.grid.dt * np.abs(np.linalg.eigvals(agent_generator(p, bundle.P1.values)))
    assert 0.85 < edge.max() < 0.95
    Mg = MatrixPath(bundle.grid, rng.standard_normal((bundle.grid.steps + 1, 3, 3)))
    fam = OffsetFamilyLaw(p, bundle.P1, law.g, Mg, rng.standard_normal((9, 3)))
    pop = [(x0, e) for x0, e in zip(rng.standard_normal((9, 3)), fam.errors)]
    for lw in (law, fam):
        for coupling, paths in _couplings(law, 3, 2):
            res = simulate(p, pop, lw, mf_coupling=paths, seed=5)
            xs, us, _ = _one_draw_run(p, pop, lw, coupling, seed=5)
            _assert_matches_the_loop(res, xs, us)


@pytest.mark.parametrize("D", [None, 0.0])
def test_an_agent_of_a_prescribed_run_is_fixed_by_its_stream_and_the_noise_sums(D):
    # under prescribed coupling agent i's bits depend on the others only
    # through the mean nbar of their noise streams and the run's sums S: not
    # on their states, in other chunks and chunk positions; without noise
    # not on them at all
    p, law, fam, pop = _family(3, 2, 300, 2 * _NOISE_BLOCK + 3)
    _, paths = _couplings(law, 3, 2)[1]
    moved = [(x0 + 1.0, E) for x0, E in pop]
    for many in (law, fam):
        r300 = simulate(p, pop, many, mf_coupling=paths, seed=5, D=D)
        for i in (0, 8, 150, 299):
            other = moved[:i] + [pop[i]] + moved[i + 1:]
            res = simulate(p, other, many, mf_coupling=paths, seed=5, D=D)
            npt.assert_array_equal(res.xs[:, i], r300.xs[:, i])
            npt.assert_array_equal(res.us[:, i], r300.us[:, i])
        for N in (1, 9, 151):
            few = many if many is law else OffsetFamilyLaw(
                p, fam.P1, fam.g, fam.Mg, fam.errors[:N])
            res = simulate(p, pop[:N], few, mf_coupling=paths, seed=5, D=D)
            # other populations, other nbar and S: the same paths only without noise
            assert np.array_equal(res.xs, r300.xs[:, :N]) == (D == 0.0)
            assert np.array_equal(res.us, r300.us[:, :N]) == (D == 0.0)


def test_a_noisy_run_of_one_agent_steps_with_the_runs_noise_sums():
    # N = 1: the agent's noise n - nbar + S is S, the run's stream alone
    K = 2 * _NOISE_BLOCK + 3
    p, law, fam, pop = _family(3, 2, 1, K)
    noise = _stream(5, _RUN).standard_normal((K, 1, 3))
    npt.assert_array_equal(_one_draw_noise(5, 1, K, 3), noise)
    for lw in (law, fam):
        for coupling, paths in _couplings(law, 3, 2):
            res = simulate(p, pop, lw, mf_coupling=paths, seed=5)
            xs, us, _ = _one_draw_run(p, pop, lw, coupling, seed=5, noise=noise)
            _assert_matches_the_loop(res, xs, us)
            npt.assert_allclose(res.x_N.values, xs[:, 0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [1, 9, 300])
def test_a_trace_or_replay_read_before_the_paths_is_the_paths_bit_for_bit(N):
    # a lone agent draws the same noise blocks as the run with paths and
    # takes its column of them
    p, law, fam, pop = _family(3, 2, N, 2 * _NOISE_BLOCK + 3)
    for lw in (law, fam):
        for _, paths in _couplings(law, 3, 2):
            res = simulate(p, pop, lw, mf_coupling=paths, seed=5)
            z, ubar = (VectorPath(res.grid, a) for a in res.coupling)
            ids = sorted({0, N // 2, N - 1})
            traces = [res.trace(i) for i in ids]
            replays = [res.replay(i, lw, z, ubar) for i in ids]
            assert "_paths" not in vars(res)
            for i, tr, (x, u) in zip(ids, traces, replays):
                for got in ((tr.x, tr.u), (x, u)):
                    npt.assert_array_equal(got[0].values, res.xs[:, i])
                    npt.assert_array_equal(got[1].values, res.us[:, i])


def _exact_terminal_moments(p, law, pop, coupling):
    """Mean and covariance of the terminal node mean of a noisy run, by a
    plain loop over the Euler mean map: the mean steps under the mean
    control, and Cov <- M Cov M' + dt D D' / N, with M = I + dt
    mf_generator(P1) under empirical coupling and I + dt agent_generator(P1)
    under prescribed coupling."""
    x0 = np.array([x for x, _ in pop])
    N, n = x0.shape
    grid = law.grid
    dt = grid.dt
    control_at = _control_at(law)
    m, cov = x0.mean(axis=0), np.zeros((n, n))
    for k in range(grid.steps):
        ubar = control_at(np.broadcast_to(m, (N, n)), k).mean(axis=0)
        if coupling is None:
            mf_x, mf_u, generator = m, ubar, mf_generator
        else:
            mf_x, mf_u, generator = coupling[0][k], coupling[1][k], agent_generator
        M = np.eye(n) + dt * generator(p, law.P1[k])
        m = m + dt * (p.A @ m + p.B @ ubar + p.C @ mf_x + p.F @ mf_u)
        cov = M @ cov @ M.T + dt * p.D @ p.D.T / N
    return m, cov


def test_the_terminal_mean_has_the_exact_gaussian_moments():
    # x_N is an affine map of (sum x0, sum E_i, g), so over seeds its
    # terminal value is Gaussian with the Euler mean map's moments: the mean
    # of e' Cov^-1 e over 300 seeds is within 4 sigma of n, sigma =
    # sqrt(2 n / 300); noise sums S = g without sqrt(N) read about n / N
    n, seeds = 3, 300
    p, law, fam, pop = _family(n, 2, 50, 200)
    for lw in (law, fam):
        for coupling, paths in _couplings(law, n, 2):
            mean, cov = _exact_terminal_moments(p, lw, pop, coupling)
            e = np.array([simulate(p, pop, lw, mf_coupling=paths, seed=seed).x_N.terminal
                          for seed in range(seeds)]) - mean
            q = np.einsum("si,ij,sj->s", e, np.linalg.inv(cov), e)
            assert abs(q.mean() - n) < 4 * np.sqrt(2 * n / seeds), q.mean()


@pytest.mark.parametrize("n, d", [(3, 2), (1, 1)])
def test_an_empirical_run_steps_with_the_node_means_of_its_paths(n, d):
    p, law, fam, pop = _family(n, d, 300, 2 * _NOISE_BLOCK + 3)
    for lw in (law, fam):
        for D in (None, 0.0):
            res = simulate(p, pop, lw, seed=5, D=D)
            npt.assert_allclose(res.coupling[0], res.x_N.values, rtol=0, atol=1e-13)
            npt.assert_allclose(res.coupling[1], res.u_N.values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [3, 9])
def test_a_run_sweeps_each_blocks_step_maps_up_once(monkeypatch, N):
    # the agents' maps once per block, the mean's once more under empirical
    # coupling, however many chunks the block's noise is scanned in (four
    # for the noisy run of nine agents, one otherwise)
    p, law, fam, pop = _family(3, 2, N, 2 * _NOISE_BLOCK + 3)
    up_sweep, sweeps = population._up_sweep, []

    def counted_up_sweep(T):
        sweeps.append(len(T))
        return up_sweep(T)

    monkeypatch.setattr(population, "_up_sweep", counted_up_sweep)
    for coupling, paths in _couplings(law, 3, 2):
        for D in (None, 0.0):
            sweeps.clear()
            simulate(p, pop, fam, mf_coupling=paths, seed=5, D=D)
            per_block = 1 if coupling is not None else 2
            assert sweeps == [n for n in (_NOISE_BLOCK, _NOISE_BLOCK, 3)
                              for _ in range(per_block)]


def test_replay_reproduces_an_agent_of_a_noisy_run_bit_for_bit():
    p, law, fam, pop = _family(3, 2, 9, 2 * _NOISE_BLOCK + 3)
    _, (z, ubar) = _couplings(law, 3, 2)[1]
    res = simulate(p, pop, law, mf_coupling=(z, ubar), seed=5)
    for i in (0, 4, 8):
        x, u = res.replay(i, law, z, ubar)
        npt.assert_array_equal(x.values, res.xs[:, i])
        npt.assert_array_equal(u.values, res.us[:, i])


def test_replay_under_the_runs_law_and_coupling_is_the_run_bit_for_bit():
    # the run's seed and D come with the result: replaying a noisy,
    # empirically coupled run of the per-agent offset law under its law and
    # recorded coupling gives each agent's stored path
    p, law, fam, pop = _family(3, 2, 9, 2 * _NOISE_BLOCK + 3)
    res = simulate(p, pop, fam, seed=5)
    z, ubar = (VectorPath(res.grid, a) for a in res.coupling)
    for i in (0, 4, -1):
        x, u = res.replay(i, fam, z, ubar)
        npt.assert_array_equal(x.values, res.xs[:, i])
        npt.assert_array_equal(u.values, res.us[:, i])
    with pytest.raises(GridMismatchError):
        res.replay(0, fam, z.slice(0, 60), ubar)


@pytest.mark.parametrize("D", [None, 0.0])
def test_drifts_on_first_read_are_the_stepped_drifts(D):
    p, law, fam, pop = _family(3, 2, 9)
    for lw in (law, fam):
        for coupling, paths in _couplings(law, 3, 2):
            _, _, stepped = _one_draw_run(p, pop, lw, coupling, seed=5, D=D)
            res = simulate(p, pop, lw, mf_coupling=paths, seed=5, D=D)
            assert "drifts" not in vars(res)
            npt.assert_allclose(res.drifts, stepped, rtol=0, atol=1e-13)
            # bit for bit the drifts of the stored paths under the run's coupling
            for k, (x, u, mf_x, mf_u) in enumerate(zip(res.xs, res.us, *res.coupling)):
                npt.assert_array_equal(
                    res.drifts[k], x @ p.A.T + u @ p.B.T + mf_x @ p.C.T + mf_u @ p.F.T)
            assert res.drifts is res.drifts
            tr = res.trace(4)
            assert np.shares_memory(tr.drift.values, res.drifts)
            npt.assert_array_equal(tr.drift.values, res.drifts[:, 4])


def test_a_noisy_runs_memory_does_not_grow_with_K(params):
    # the run keeps node arrays, (K+1, n) each, and builds no (K+1, N, .)
    # path: its peak stays below one such array, and what it holds beyond
    # what it leaves behind is the same at four times the nodes
    pop = _pop(100)
    held = {}
    for K in (1000, 4000):
        bundle = RiccatiBundle.solve(params, params.default_grid(K))
        law = equilibrium_law(bundle, equilibrium_mf(bundle, P6_Z0))
        law.gain, law.offset   # the law's node arrays, before the run
        tracemalloc.start()
        try:
            res = simulate(params, pop, law, seed=3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (K + 1) * len(pop) * params.n * 8
        held[K] = peak - kept
        del res
    assert abs(held[4000] - held[1000]) <= 0.1 * held[1000]


def test_a_noiseless_run_forms_no_block_of_states(params):
    # the node sums come from the agents' summed rows, chained from block to
    # block, and no agent's state is formed: the run's peak is a few (N, n)
    # rows and (K+1, n) node arrays (4.9 of each at N = K = 2000, measured),
    # far below one block of states, (_NOISE_BLOCK + 1, N, n)
    pop = _pop(2000)
    bundle = RiccatiBundle.solve(params, params.default_grid())
    law = equilibrium_law(bundle, equilibrium_mf(bundle, P6_Z0))
    law.gain, law.offset   # the law's node arrays, before the run
    tracemalloc.start()
    try:
        simulate(params, pop, law, seed=3, D=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * (len(pop) + bundle.grid.steps + 1) * params.n * 8


def _spy_step_agents(monkeypatch):
    step_agents, calls = population._step_agents, []

    def spy(law, x0, *args, **kwargs):
        calls.append((len(x0), kwargs.get("paths", False)))
        return step_agents(law, x0, *args, **kwargs)

    monkeypatch.setattr(population, "_step_agents", spy)
    return calls


def test_a_run_builds_its_paths_only_when_they_are_read(monkeypatch):
    p, law, fam, pop = _family(3, 2, 9, 2 * _NOISE_BLOCK + 3)
    calls = _spy_step_agents(monkeypatch)
    res = simulate(p, pop, fam, seed=5)
    res.x_N, res.u_N, res.coupling
    assert len(res.traces) == 9
    assert calls == [(9, False)]
    xs = res.xs
    assert calls == [(9, False), (9, True)]
    res.us, res.drifts, res.trace(4), res.traces[2].drift, list(res.traces)
    assert res.xs is xs and calls == [(9, False), (9, True)]
    assert np.shares_memory(res.trace(4).x.values, xs)


@pytest.mark.parametrize("D", [None, 0.0])
def test_a_trace_read_before_the_paths_steps_only_its_agent(monkeypatch, D):
    p, law, fam, pop = _family(3, 2, 9, 2 * _NOISE_BLOCK + 3)
    _, paths = _couplings(law, 3, 2)[1]
    calls = _spy_step_agents(monkeypatch)
    for coupling in ("empirical", paths):
        for lw in (law, fam):
            calls.clear()
            res = simulate(p, pop, lw, mf_coupling=coupling, seed=5, D=D)
            traces = [res.trace(3), res.traces[-1], res.trace(0)]
            assert calls == [(9, False), (1, True), (1, True), (1, True)]
            assert "_paths" not in vars(res)
            for i, tr in zip((3, 8, 0), traces):
                assert tr.agent_id == i
                npt.assert_array_equal(tr.x.values, res.xs[:, i])
                npt.assert_array_equal(tr.u.values, res.us[:, i])


def test_iterating_the_traces_builds_the_paths_once(monkeypatch):
    p, law, fam, pop = _family(3, 2, 9, 2 * _NOISE_BLOCK + 3)
    calls = _spy_step_agents(monkeypatch)
    res = simulate(p, pop, fam, seed=5)
    traces = list(res.traces)
    assert calls == [(9, False), (9, True)]
    assert [tr.agent_id for tr in traces] == list(range(9))
    assert all(np.shares_memory(tr.x.values, res.xs) for tr in traces)


@pytest.mark.parametrize("N", [1, 9, 300])
def test_paths_on_first_read_are_a_run_under_the_recorded_coupling(N):
    p, law, fam, pop = _family(3, 2, N, 2 * _NOISE_BLOCK + 3)
    for lw in (law, fam):
        for D in (None, 0.0):
            res = simulate(p, pop, lw, seed=5, D=D)
            coupling = tuple(VectorPath(law.grid, a) for a in res.coupling)
            fresh = simulate(p, pop, lw, mf_coupling=coupling, seed=5, D=D)
            npt.assert_array_equal(fresh.x_N.values, res.x_N.values)
            npt.assert_array_equal(fresh.u_N.values, res.u_N.values)
            npt.assert_array_equal(res.xs, fresh.xs)
            npt.assert_array_equal(res.us, fresh.us)


def _assert_population_error(match, run):
    with pytest.raises(PopulationError, match=match) as ei:
        run()
    assert isinstance(ei.value, ValueError) and isinstance(ei.value, MfgError)


def test_a_population_that_does_not_fit_fails_loudly(params, law_c, mf_c, maps, bundle):
    pop = _pop(5)
    wide = [(np.ones(3), E) for _, E in pop]
    ragged = pop[:2] + [(pop[2][0], np.ones(3))] + pop[3:]
    fam3 = OffsetFamilyLaw(params, law_c.P1, law_c.g, maps.Mg, errors=np.zeros((3, 2)))
    _assert_population_error(r"at least one agent, got 0",
                             lambda: simulate(params, [], law_c))
    _assert_population_error(r"x0 of agent 0 has shape \(3,\), not \(2,\), "
                             r"in a population of 5 on n = 2",
                             lambda: simulate(params, wide, law_c))
    _assert_population_error(r"E_i of agent 2 has shape \(3,\), not \(2,\)",
                             lambda: simulate(params, ragged, law_c))
    _assert_population_error(r"x0 holds values that are not numbers",
                             lambda: simulate(params, [(["a", "b"], np.zeros(2))], law_c))
    _assert_population_error(r"errors of shape \(3, 2\), not \(5, 2\), for 5 agents",
                             lambda: simulate(params, pop, fam3))
    nan = pop[:3] + [(np.array([0.0, np.nan]), pop[3][1])] + pop[4:]
    _assert_population_error(r"x0 of agent 3 is not finite",
                             lambda: simulate(params, nan, law_c))
    res = simulate(params, pop, law_c, mf_coupling=(mf_c.z, mf_c.ubar), D=0.0)
    _assert_population_error(r"errors of shape \(3, 2\), not \(5, 2\)",
                             lambda: res.replay(4, fam3, mf_c.z, mf_c.ubar))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_population_error(r"at least one agent, got 0",
                                 lambda: realtime_simulate(params, bundle, [],
                                                           truth_policy()))
        _assert_population_error(r"x0 of agent 0 has shape \(3,\)",
                                 lambda: realtime_simulate(params, bundle, wide,
                                                           truth_policy()))
        _assert_population_error(r"x0 of agent 3 is not finite",
                                 lambda: realtime_simulate(params, bundle, nan,
                                                           truth_policy()))


@pytest.mark.parametrize("D, match", [
    (np.ones(2), r"D of shape \(2,\) is not a finite scalar or \(2, 2\) matrix, on n = 2"),
    (np.eye(3), r"D of shape \(3, 3\) is not a finite scalar or \(2, 2\) matrix"),
    (np.nan, r"D of shape \(\) is not a finite scalar"),
], ids=["vector", "3x3", "nan"])
def test_a_noise_override_that_does_not_fit_is_a_population_error(params, bundle, law_c,
                                                                  D, match):
    # before, the 3x3 D died in a numpy matmul and the NaN blamed agent 0's
    # state at node 1
    pop = _pop(5)
    _assert_population_error(match, lambda: simulate(params, pop, law_c, D=D))
    _assert_population_error(match, lambda: realtime_simulate(params, bundle, pop,
                                                              truth_policy(), D=D))
    # a negative scalar is -D times I, the same noise law as D
    assert np.isfinite(simulate(params, pop, law_c, D=-0.05).x_N.values).all()


@pytest.mark.parametrize("coupling", ["name", "one_path", "arrays", "wide"])
def test_a_coupling_other_than_empirical_or_a_pair_of_paths_is_a_population_error(
        params, law_c, mf_c, coupling):
    z, ubar = mf_c.z, mf_c.ubar
    wide = VectorPath(z.grid, np.hstack([z.values, z.values]))
    given, got = {
        "name": ("prescribed", r"str \['prescribed'\]"),
        "one_path": ((z,), r"tuple \[VectorPath \(2001, 2\)\]"),
        "arrays": ([z.values, ubar.values],
                   r"list \[ndarray \(2001, 2\), ndarray \(2001, 2\)\]"),
        "wide": ((wide, ubar), r"tuple \[VectorPath \(2001, 4\), VectorPath \(2001, 2\)\]"),
    }[coupling]
    _assert_population_error(
        r'mf_coupling must be "empirical" or a pair \(z_path, ubar_path\) of VectorPaths '
        r"of widths n = 2 and d = 2, got " + got + "$",
        lambda: simulate(params, _pop(5), law_c, mf_coupling=given))


def test_sampling_inputs_that_do_not_fit_are_a_population_error():
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    for match, args in [
        (r"N must be >= 1, got 0", (0, P6_Z0, P6_INIT_COV, np.zeros(2), P6_ERROR_COV)),
        (r"init_cov of shape \(2, 2\) is not a finite symmetric \(2, 2\) matrix",
         (2, P6_Z0, asym, np.zeros(2), P6_ERROR_COV)),
        (r"error_cov must be positive semidefinite",
         (2, P6_Z0, P6_INIT_COV, np.zeros(2), -np.eye(2))),
        # before, a numpy matmul error
        (r"init_cov of shape \(3, 3\) is not a finite symmetric \(2, 2\) matrix",
         (2, P6_Z0, np.eye(3), np.zeros(2), P6_ERROR_COV)),
        (r"means of shapes \(2,\) and \(3,\) are not two n-vectors",
         (2, P6_Z0, P6_INIT_COV, np.zeros(3), P6_ERROR_COV)),
    ]:
        _assert_population_error(match, lambda: sample_population(*args, seed=0))


def test_a_params_argument_other_than_the_law_or_bundle_fails_loudly():
    # A = -2 I steers the dynamics of the run while the law and the bundle
    # hold P6: unchecked, x_N and z_A move by 0.159 without an error
    p6 = p6_params()
    other = p6.with_(A=-2.0 * np.eye(2))
    grid = p6.default_grid(400)
    bundle = RiccatiBundle.solve(p6, grid)
    mf = equilibrium_mf(bundle, P6_Z0)
    law = equilibrium_law(bundle, mf)
    pop = sample_population(20, init_mean=P6_Z0, init_cov=P6_INIT_COV,
                            error_mean=np.zeros(2), error_cov=P6_ERROR_COV, seed=3)
    # an equal parameter set in another object is the same game
    res = simulate(p6.with_(), pop, law, grid=grid, seed=3, D=0.0)
    runs = (
        lambda params: simulate(params, pop, law, grid=grid, seed=3, D=0.0),
        lambda params: res.replay(0, dataclasses.replace(law, params=params), mf.z, mf.ubar),
        lambda params: realtime_simulate(params, bundle, pop, truth_policy(), seed=3,
                                         D=0.0),
    )
    for run in runs:
        run(p6.with_())
        with pytest.raises(ParamsMismatchError) as ei:
            run(other)
        assert isinstance(ei.value, ValueError) and isinstance(ei.value, MfgError)
