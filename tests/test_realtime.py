"""Per-node re-estimation: kernels, anchored maps, and simulation."""

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim import deviations, ode, riccati, scenario
from mfg_errsim.core import equilibrium_mf
from mfg_errsim.deviations import build_maps
from mfg_errsim.errors import (
    EstimatorPolicyError,
    GridMismatchError,
    IntegrationBlowupError,
    ParamsMismatchError,
)
from mfg_errsim.grid import TimeGrid, VectorPath
from mfg_errsim.params import P6_Z0
from mfg_errsim.realtime import (
    build_kernels,
    build_realtime_maps,
    constant_error_policy,
    decay_to_truth_policy,
    deviation_quadrature,
    hold_initial_error_policy,
    realtime_simulate,
    restricted_prediction,
    truth_policy,
)
from mfg_errsim.riccati import RiccatiBundle

T0 = 0.5
E_OWN = np.array([0.15, -0.05])
E_AVG = np.array([0.1, -0.1])


def _anchored(bundle, mf_c, e_own, e_avg, t0=T0, route="p2"):
    return restricted_prediction(bundle, mf_c.z.at(t0) + e_avg, mf_c.z.at(t0) + e_own,
                                 t0, route=route)


def test_routes_agree(bundle, mf_c):
    p2 = _anchored(bundle, mf_c, E_OWN, E_AVG, route="p2")
    p0 = _anchored(bundle, mf_c, E_OWN, E_AVG, route="p0")
    assert np.max(np.abs(p2["zbar"].values - p0["zbar"].values)) < 1e-6
    assert np.max(np.abs(p2["gbar"].values - p0["gbar"].values)) < 1e-6
    assert np.max(np.abs(p2["g_i"].values - p0["g_i"].values)) < 1e-6
    with pytest.raises(ValueError):
        _anchored(bundle, mf_c, E_OWN, E_AVG, route="p3")


def test_truthful_anchor_reproduces_equilibrium(bundle, mf_c, law_c, grid):
    pred = _anchored(bundle, mf_c, np.zeros(2), np.zeros(2))
    k0 = grid.index_of(T0)
    assert np.max(np.abs(pred["z_hat"].values - mf_c.z.values[k0:])) < 1e-7
    assert np.max(np.abs(pred["g_i"].values - law_c.g.values[k0:])) < 1e-7


def test_anchored_maps_match_restricted_predictions(bundle, mf_c, law_c,
                                                    kernels, grid):
    rt = build_realtime_maps(kernels, T0)
    pred = _anchored(bundle, mf_c, E_OWN, E_AVG)
    k0 = grid.index_of(T0)
    dz_direct = pred["z_hat"].values - mf_c.z.values[k0:]
    dz_mapped = (
        np.einsum("kij,j->ki", rt.Miz.values[k0:], E_OWN)
        + np.einsum("kij,j->ki", rt.M0z.values[k0:], E_AVG)
    )
    assert np.max(np.abs(dz_mapped - dz_direct)) < 1e-6
    dg_direct = pred["g_i"].values - law_c.g.values[k0:]
    dg_mapped = (
        np.einsum("kij,j->ki", rt.Mig.values[k0:], E_OWN)
        + np.einsum("kij,j->ki", rt.M0g.values[k0:], E_AVG)
    )
    assert np.max(np.abs(dg_mapped - dg_direct)) < 1e-6


def test_anchored_maps_are_identity_or_zero_at_the_anchor(kernels, grid):
    rt = build_realtime_maps(kernels, T0)
    k0 = grid.index_of(T0)
    npt.assert_allclose(rt.Miz[k0], np.eye(2), atol=1e-12)
    npt.assert_allclose(rt.M0z[k0], np.zeros((2, 2)), atol=1e-12)


def test_diagonal_kernels_match_anchored_maps(kernels, grid):
    for t0 in (0.25, 1.0, 1.75):
        k0 = grid.index_of(t0)
        rt = build_realtime_maps(kernels, t0)
        npt.assert_allclose(kernels.Mig_diag[k0], rt.Mig[k0], atol=1e-10)
        npt.assert_allclose(kernels.M0g_diag[k0], rt.M0g[k0], atol=1e-10)


def test_average_error_kernel_is_the_representation_identity(bundle, kernels):
    # an agent whose two estimates agree plays the predicted equilibrium,
    # whose offset deviation is (P0 - P1) times its mean-field deviation
    want = (bundle.P0.values - bundle.P1.values) - kernels.Mig_diag
    assert np.max(np.abs(kernels.M0g_diag - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernels_solve_no_P2(params, monkeypatch):
    def no_P2(*args):
        raise AssertionError("build_kernels solved P2")

    monkeypatch.setattr(riccati, "solve_P2", no_P2)
    bundle = RiccatiBundle.solve(params, params.default_grid(200))
    build_kernels(bundle)
    assert "P2" not in vars(bundle)


def test_policies(kernels):
    assert truth_policy()(3, 0, 0.0) == (0.0, 0.0)
    errors = np.array([[0.1, 0.2], [0.3, 0.4]])
    hold = hold_initial_error_policy(errors, E_AVG)
    npt.assert_array_equal(hold(1, 5, 0.7)[0], errors[1])
    npt.assert_array_equal(hold(1, 5, 0.7)[1], E_AVG)
    decay = decay_to_truth_policy(errors, E_AVG, rate=2.0)
    npt.assert_allclose(decay(0, 0, 1.0)[0], errors[0] * np.exp(-2.0))
    const = constant_error_policy(E_AVG)
    npt.assert_array_equal(const(9, 1, 0.1)[0], E_AVG)
    npt.assert_array_equal(const(9, 1, 0.1)[1], E_AVG)

    # called with the index array, each factory gives the stacked per-agent rows
    ids = np.arange(len(errors))
    for policy in (truth_policy(), hold, decay, const):
        for k, t in ((0, 0.0), (5, 0.7)):
            batch = [np.broadcast_to(e, errors.shape) for e in policy(ids, k, t)]
            rows = [np.broadcast_to(policy(i, k, t)[j], (2,)) for i in ids
                    for j in (0, 1)]
            npt.assert_array_equal(np.stack(batch, axis=1).reshape(-1, 2), rows)


def _pop(n_agents, seed=0):
    rng = np.random.default_rng(seed)
    return [(np.asarray(P6_Z0) + 0.05 * rng.standard_normal(2), np.zeros(2))
            for _ in range(n_agents)]


def test_policy_is_called_once_per_node_with_the_index_array(params, bundle,
                                                             grid, kernels):
    calls = []

    def recording(ids, k, t):
        calls.append((ids.copy(), k, t))
        return 0.0, 0.0

    realtime_simulate(params, bundle, _pop(7), recording, grid=grid, seed=0,
                      D=0.0, kernels=kernels)
    assert len(calls) == grid.steps + 1
    for k, (ids, kk, t) in enumerate(calls):
        npt.assert_array_equal(ids, np.arange(7))
        assert kk == k and t == grid.times[k]


def test_vector_and_per_agent_policy_outputs_agree_bitwise(params, bundle,
                                                           grid, kernels):
    pop = _pop(9, seed=1)

    def as_vectors(ids, k, t):
        return E_OWN * np.exp(-t), E_AVG

    def as_rows(ids, k, t):
        own, avg = as_vectors(ids, k, t)
        return np.tile(own, (len(ids), 1)), np.tile(avg, (len(ids), 1))

    a, b = (realtime_simulate(params, bundle, pop, policy, grid=grid, seed=4,
                              kernels=kernels)
            for policy in (as_vectors, as_rows))
    for key in ("z_A", "Ebar", "Ebar1", "predicted_deviation"):
        npt.assert_array_equal(a[key].values, b[key].values)


@pytest.mark.parametrize("output, shape", [
    ((np.zeros(3), 0.0), "(3,)"),
    ((np.zeros((4, 2)), 0.0), "(4, 2)"),
    ((0.0, 0.0, 0.0), "[(), (), ()]"),
])
def test_policy_output_that_does_not_broadcast_is_a_package_error(
        params, bundle, grid, kernels, output, shape):
    def bad(ids, k, t):
        return output if k == 3 else (0.0, 0.0)

    with pytest.raises(EstimatorPolicyError, match="node 3") as ei:
        realtime_simulate(params, bundle, _pop(5), bad, grid=grid, seed=0,
                          D=0.0, kernels=kernels)
    assert shape in str(ei.value) and ei.value.node == 3


@pytest.mark.parametrize("at, own, avg", [(50, np.nan, 0.0), (10, 0.0, np.nan),
                                          (None, np.inf, 0.0)],
                         ids=["own-nan-50", "avg-nan-10", "own-inf-K"])
def test_non_finite_policy_errors_are_a_policy_error_naming_the_node(
        params, bundle, grid, kernels, at, own, avg):
    # at node K the errors step no state; at an earlier node they reach the
    # states at the next one, which the policy is blamed for
    k = grid.steps if at is None else at

    def bad(ids, j, t):
        return (own, avg) if j == k else (0.0, 0.0)

    with pytest.raises(EstimatorPolicyError, match=f"node {k} ") as ei:
        realtime_simulate(params, bundle, _pop(5), bad, grid=grid, seed=0,
                          D=0.0, kernels=kernels)
    assert ei.value.node == k and "not finite" in str(ei.value)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_state_is_a_blowup_error(params, bundle, grid, kernels):
    # agents 0 and 1 start at +-1.7e308, whose mean is finite, and their
    # first drift, about -+2.1e308, overflows
    pop = _pop(5)
    for i, x in ((0, 1.7e308), (1, -1.7e308)):
        pop[i] = (np.array([x, 0.0]), pop[i][1])
    with pytest.raises(IntegrationBlowupError, match="agent 0 state non-finite") as ei:
        realtime_simulate(params, bundle, pop, truth_policy(), grid=grid, seed=0,
                          D=0.0, kernels=kernels)
    assert ei.value.node == 1 and ei.value.time == grid.times[1]


def test_simulation_rejects_a_grid_other_than_the_bundles(params, bundle,
                                                          kernels):
    for steps in (100, 4000):
        with pytest.raises(GridMismatchError):
            realtime_simulate(params, bundle, _pop(3), truth_policy(),
                              grid=params.default_grid(steps), seed=0, D=0.0,
                              kernels=kernels)


def test_simulation_rejects_kernels_of_another_parameter_set(params, bundle, kernels):
    # kernels of C = 0.2 I on the same grid: unchecked, z_A moves by 2.9e-3
    # without an error
    other = build_kernels(RiccatiBundle.solve(params.with_(C=0.2 * np.eye(2)), bundle.grid))
    policy = constant_error_policy(E_AVG)
    realtime_simulate(params, bundle, _pop(5), policy, seed=0, kernels=kernels)
    with pytest.raises(ParamsMismatchError, match="kernels"):
        realtime_simulate(params, bundle, _pop(5), policy, seed=0, kernels=other)


def test_quadrature_rejects_error_paths_on_another_grid(params):
    kernels = build_kernels(RiccatiBundle.solve(params, params.default_grid(200)))
    zeros = np.zeros((201, 2))
    on_kernels_grid = VectorPath(kernels.grid, zeros)
    assert np.all(deviation_quadrature(kernels, on_kernels_grid, on_kernels_grid).values == 0)
    for grid in (TimeGrid(0.0, 3.0, 200), params.default_grid(100)):
        other = VectorPath(grid, np.ones((grid.steps + 1, 2)))
        for paths in ((other, on_kernels_grid), (on_kernels_grid, other)):
            with pytest.raises(GridMismatchError):
                deviation_quadrature(kernels, *paths)


def _held_quadrature(params, steps):
    """The predicted deviation of held errors, E_OWN own and E_AVG average,
    with its kernels on a grid of the given steps."""
    kernels = build_kernels(RiccatiBundle.solve(params, params.default_grid(steps)))
    ones = np.ones((steps + 1, 1))
    return deviation_quadrature(kernels, VectorPath(kernels.grid, ones * E_OWN),
                                VectorPath(kernels.grid, ones * E_AVG)).values


# the errors measured at 200 steps, 6.54e-7 (P6) and 6.77e-7 (mixed), plus 10 %
@pytest.mark.parametrize("fixture, bound", [("maps", 7.2e-7), ("mixed_maps", 7.45e-7)])
def test_quadrature_converges_at_second_order_to_a_fine_solve(request, fixture, bound):
    params = request.getfixturevalue(fixture).params
    fine = _held_quadrature(params, 16000)
    errs = np.array([np.max(np.abs(_held_quadrature(params, K) - fine[::16000 // K]))
                     for K in (200, 400, 800)])
    assert errs[0] < bound
    assert (np.log2(errs[:-1] / errs[1:]) >= 1.9).all(), errs


# ------------------------------------------------------- two-path kernels


def test_kernels_from_the_bundle_equal_kernels_from_maps(bundle, maps, kernels):
    # the maps and the kernels are the bundle's own, built once
    assert maps is bundle and kernels is bundle
    Mig, M0g = kernels.Mig_diag, kernels.M0g_diag
    assert build_kernels(bundle) is bundle and build_kernels(bundle, maps) is bundle
    assert bundle.Mig_diag is Mig and bundle.M0g_diag is M0g


def test_a_bundle_builds_its_maps_and_kernels_once(params, monkeypatch):
    bundle = RiccatiBundle.solve(params, params.default_grid(200))
    assert build_maps(bundle) is bundle and build_kernels(bundle) is bundle
    names = ("Phi1", "PhiZ", "Mg", "Mz", "K1", "K2", "PhiX", "Mx1", "Mx2", "Mig_diag",
             "M0g_diag")
    first = [getattr(bundle, name) for name in names]

    def refuse(*args, **kwargs):
        raise AssertionError("built again on a second read")

    monkeypatch.setattr(ode.StepMaps, "__init__", refuse)
    for module in (ode, riccati):
        monkeypatch.setattr(module, "invert_path", refuse)
        monkeypatch.setattr(module, "rk4_affine", refuse)
    assert build_maps(bundle) is bundle and build_kernels(bundle) is bundle
    assert all(getattr(bundle, name) is a for name, a in zip(names, first))


def test_a_second_simulation_reads_the_bundles_kernels(params, monkeypatch):
    bundle = RiccatiBundle.solve(params, params.default_grid(100))
    policy = constant_error_policy(E_AVG)
    first = realtime_simulate(params, bundle, _pop(5), policy, seed=0)
    scans, solve = [], bundle.tracking_steps.solve

    def spy(*args):
        scans.append(args)
        return solve(*args)

    # the kernel V is the one solve under the tracking step maps
    monkeypatch.setattr(bundle.tracking_steps, "solve", spy)
    again = realtime_simulate(params, bundle, _pop(5), policy, seed=0)
    assert scans == []
    npt.assert_array_equal(again["z_A"].values, first["z_A"].values)


def test_kernels_reject_maps_of_another_bundle(params, bundle, maps):
    other = RiccatiBundle.solve(params, params.default_grid(50))
    with pytest.raises(GridMismatchError):
        build_kernels(bundle, build_maps(other))
    with pytest.raises(GridMismatchError):
        build_kernels(other, maps)


def test_realtime_scenario_does_not_build_deviation_maps(tmp_path, monkeypatch):
    def refuse(bundle):
        raise AssertionError("build_maps called in realtime mode")

    monkeypatch.setattr(scenario, "build_maps", refuse)
    monkeypatch.setattr(deviations, "build_maps", refuse)
    cfg = scenario.validate_config({
        "mode": "realtime", "grid_steps": 100, "N": 5, "D": 0.0,
        "output_dir": str(tmp_path)})
    manifest = scenario.run_scenario(cfg)
    assert "deviations.csv" in manifest.files


def test_truth_policy_simulation_tracks_equilibrium(params, bundle, grid,
                                                    kernels):
    pop = [(np.asarray(P6_Z0, dtype=float), np.zeros(2)) for _ in range(20)]
    res = realtime_simulate(params, bundle, pop, truth_policy(), grid=grid,
                            seed=0, z0=P6_Z0, D=0.0, kernels=kernels)
    assert res["deviation_report"]["max_abs_deviation"] < 2e-3
    npt.assert_array_equal(res["Ebar"].values, 0.0)


def test_constant_error_simulation_matches_quadrature(params, bundle, grid,
                                                      kernels):
    pop = [(np.asarray(P6_Z0, dtype=float), np.zeros(2)) for _ in range(20)]
    res = realtime_simulate(params, bundle, pop, constant_error_policy(E_AVG),
                            grid=grid, seed=0, z0=P6_Z0, D=0.0, kernels=kernels)
    report = res["deviation_report"]
    assert report["max_abs_deviation"] > 1e-3  # errors visibly move the mean
    assert report["max_abs_mismatch"] < 5e-3
    # the reported prediction is exactly the quadrature of the realized errors
    again = deviation_quadrature(kernels, res["Ebar"], res["Ebar1"])
    npt.assert_array_equal(res["predicted_deviation"].values, again.values)


def test_simulation_uses_population_mean_when_z0_omitted(params, bundle, grid,
                                                         kernels, mf_c):
    pop = [(np.asarray(P6_Z0, dtype=float) + 0.1, np.zeros(2))]
    res = realtime_simulate(params, bundle, pop, truth_policy(), grid=grid,
                            seed=0, D=0.0, kernels=kernels)
    npt.assert_allclose(res["z_c"].initial, np.asarray(P6_Z0) + 0.1, atol=1e-14)


def test_planned_offset_equals_tracking_solution(bundle, mf_c, law_c):
    # the offset planned from the equilibrium prediction, a tracking solve,
    # is the representation g_c = (P0 - P1) z_c + G that realtime_simulate uses
    g_c = np.einsum("kij,kj->ki", bundle.P0.values - bundle.P1.values,
                    mf_c.z.values) + bundle.G.values
    assert np.max(np.abs(law_c.g.values - g_c)) < 1e-6
    mf2 = equilibrium_mf(bundle, P6_Z0)
    npt.assert_array_equal(mf2.z.values, mf_c.z.values)
