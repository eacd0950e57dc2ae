"""End-to-end acceptance suite.

Each test verifies one contracted behaviour of the library at the stated
tolerance and prints a single PASS line with the measured figure of merit.
"""

import json
import os

import numpy as np

from mfg_errsim.core import epsilon_nash_gap, equilibrium_law, equilibrium_mf
from mfg_errsim.correction import (
    build_correction_problem,
    corrected_mf_deviation,
    identifiability,
    modified_game,
    recover_errors,
    residual_path,
)
from mfg_errsim.deviations import (
    actual_mf_deviation,
    control_offset_deviation,
    expected_trajectory_deviation,
    predicted_mf_deviation,
)
from mfg_errsim.limiting import solve_limiting
from mfg_errsim.params import (
    P6_EBAR_BASE,
    P6_ERROR_COV,
    P6_INIT_COV,
    P6_Z0,
    p6_params,
    s1_params,
)
from mfg_errsim.population import OffsetFamilyLaw, sample_population, simulate
from mfg_errsim.realtime import (
    constant_error_policy,
    hold_initial_error_policy,
    realtime_simulate,
    restricted_prediction,
    truth_policy,
)
from mfg_errsim.riccati import RiccatiBundle, solve_P1
from mfg_errsim.scenario import run_scenario, validate_config

from test_riccati import P0_AT_0, P1_AT_0

PROBE_TIMES = (0.25, 1.0, 1.75)


def _sup(a):
    return float(np.max(np.abs(a)))


def _fit_line(k, y):
    k = np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.column_stack([k, np.ones_like(k)])
    (a, b), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (a * k + b)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(a), float(b), r2


def test_acceptance_1_riccati_correctness(bundle):
    # stationary scalar fixture: terminal value is the algebraic fixed point
    p = s1_params()
    P1 = solve_P1(p, p.default_grid(500))
    err_fix = _sup(P1.values - 1.0)
    assert err_fix < 1e-10

    # scalar closed form P(t) = tanh(T - t)
    one = np.eye(1)
    pt = s1_params().with_(Qbar_I=0 * one, Qbar=0 * one)
    gridt = pt.default_grid(2000)
    Pt = solve_P1(pt, gridt)
    err_tanh = _sup(Pt.values[:, 0, 0] - np.tanh(pt.T - gridt.times))
    assert err_tanh < 1e-8

    # canonical fixture against the independent Hamiltonian-system reference
    err_h1 = _sup(bundle.P1.initial - P1_AT_0 * np.eye(2))
    err_h0 = _sup(bundle.P0.initial - P0_AT_0 * np.eye(2))
    assert err_h1 < 1e-7
    assert err_h0 < 1e-7
    print(f"PASS acceptance 1: fixed point {err_fix:.2e}, tanh {err_tanh:.2e}, "
          f"Hamiltonian P1 {err_h1:.2e} / P0 {err_h0:.2e}")


def test_acceptance_2_representation_identities(bundle):
    err_P = _sup(bundle.P2.values - (bundle.P0.values - bundle.P1.values))
    err_G = _sup(bundle.G1.values - bundle.G.values)
    assert err_P < 1e-6
    assert err_G < 1e-6
    print(f"PASS acceptance 2: sup|P2-(P0-P1)| {err_P:.2e}, "
          f"sup|G1-G| {err_G:.2e}")


def test_acceptance_3_linear_deviation_maps(bundle, maps, mf_c, z0):
    rng = np.random.default_rng(2024)
    g_c = equilibrium_law(bundle, mf_c).g
    ref = solve_limiting(bundle, z0, np.zeros(2), np.zeros(2))
    worst = 0.0
    for _ in range(10):
        E_i = rng.standard_normal(2)
        E_i *= rng.uniform(0.05, 1.0) / np.linalg.norm(E_i)
        E_bar = rng.standard_normal(2)
        E_bar *= rng.uniform(0.05, 1.0) / np.linalg.norm(E_bar)
        run = solve_limiting(bundle, z0, E_i, E_bar)
        worst = max(
            worst,
            _sup(predicted_mf_deviation(maps, E_i)["dz"].values
                 - (run.mf_i.z.values - run.z_c.z.values)),
            _sup(control_offset_deviation(maps, E_i).values
                 - (run.g_i.values - g_c.values)),
            _sup(actual_mf_deviation(maps, E_bar)["dz"].values
                 - (run.z_A.values - run.z_c.z.values)),
            _sup(expected_trajectory_deviation(maps, E_i, E_bar).values
                 - (run.x_i.values - ref.x_i.values)),
        )
    assert worst < 1e-6

    # superposition of the linear maps is exact to roundoff
    a = np.array([0.3, -0.7])
    b = np.array([-0.2, 0.5])
    sup_err = _sup(
        actual_mf_deviation(maps, a + b)["dz"].values
        - actual_mf_deviation(maps, a)["dz"].values
        - actual_mf_deviation(maps, b)["dz"].values
    )
    assert sup_err < 1e-12
    print(f"PASS acceptance 3: map vs two-solve {worst:.2e}, "
          f"superposition {sup_err:.2e}")


def test_acceptance_4_linearity_in_error_magnitude(
        params, grid, bundle, maps, mf_c, law_c, z0):
    k_sweep = [1.0, 2.0, 3.0, 4.0]

    # deterministic sweep
    runs = [solve_limiting(bundle, z0, k * P6_EBAR_BASE, k * P6_EBAR_BASE)
            for k in k_sweep]
    # zero-error baseline in the same representation as z_A, so intercepts
    # measure nonlinearity rather than cross-representation discretization
    ref = solve_limiting(bundle, z0, np.zeros(2), np.zeros(2))
    worst_r2, worst_icpt = 1.0, 0.0
    for extract in (
        lambda r: r.zbar.z.values - r.z_c.z.values,
        lambda r: r.z_A.values - ref.z_A.values,
    ):
        devs = [extract(r) for r in runs]
        for tp in PROBE_TIMES:
            kk = grid.index_of(tp)
            for j in range(2):
                _, b, r2 = _fit_line(k_sweep, [d[kk, j] for d in devs])
                worst_r2 = min(worst_r2, r2)
                worst_icpt = max(worst_icpt, abs(b))
    assert worst_r2 >= 0.999
    assert worst_icpt < 1e-8

    # stochastic sweep: N = 800 heterogeneous agents, 10 seeds per k
    n_seeds = 10
    stoch_r2 = 1.0
    means = np.empty((len(k_sweep), len(PROBE_TIMES), 2))
    probe_idx = [grid.index_of(tp) for tp in PROBE_TIMES]
    for ik, k in enumerate(k_sweep):
        acc = np.zeros((len(PROBE_TIMES), 2))
        for s in range(n_seeds):
            seed = 7000 + 100 * ik + s
            pop = sample_population(
                800, init_mean=z0, init_cov=P6_INIT_COV,
                error_mean=k * P6_EBAR_BASE, error_cov=P6_ERROR_COV, seed=seed)
            errors = np.array([E for _, E in pop])
            fam = OffsetFamilyLaw(params, bundle.P1, law_c.g, maps.Mg, errors)
            res = simulate(params, pop, fam, grid=grid, seed=seed)
            dz = res.x_N.values - mf_c.z.values
            acc += dz[probe_idx]
        means[ik] = acc / n_seeds
    for it in range(len(PROBE_TIMES)):
        for j in range(2):
            _, _, r2 = _fit_line(k_sweep, means[:, it, j])
            stoch_r2 = min(stoch_r2, r2)
    assert stoch_r2 >= 0.98
    print(f"PASS acceptance 4: deterministic R^2 >= {worst_r2:.6f} "
          f"(intercept {worst_icpt:.2e}), stochastic R^2 >= {stoch_r2:.4f}")


def test_acceptance_5_one_time_correction(params, grid, bundle, maps, z0):
    t0 = 0.5
    E_bar = np.array([0.4, -0.4])
    E_i = np.array([0.2, 0.1])
    run = solve_limiting(bundle, z0, E_i, E_bar)
    ob1 = residual_path(run.observable(), run.mf_i.z, run.g_i, bundle)
    problem = build_correction_problem(maps, ob1, t0, z_i_t0=run.mf_i.z.at(t0))
    assert identifiability(problem)["identifiable"]
    result = recover_errors(problem)
    rel_bar = np.linalg.norm(result.E_bar - E_bar) / np.linalg.norm(E_bar)
    rel_i = np.linalg.norm(result.E_i - E_i) / np.linalg.norm(E_i)
    assert rel_bar < 1e-6
    assert rel_i < 1e-6

    # correction strictly shrinks the residual deviation for every magnitude
    k0 = grid.index_of(t0)
    map_err = 0.0
    for k in (1.0, 2.0, 3.0, 4.0):
        Ek = k * P6_EBAR_BASE
        run_k = solve_limiting(bundle, z0, Ek, Ek)
        ob1_k = residual_path(run_k.observable(), run_k.mf_i.z, run_k.g_i, bundle)
        res_k = recover_errors(build_correction_problem(
            maps, ob1_k, t0, z_i_t0=run_k.mf_i.z.at(t0)))
        mod = modified_game(bundle, res_k.z_A_t0, t0)
        dev_cor = _sup(mod["z_new"].values - run_k.z_c.z.values[k0:])
        dev_unc = _sup(run_k.z_A.values[k0:] - run_k.z_c.z.values[k0:])
        assert dev_cor < dev_unc
        map_err = max(map_err, _sup(
            corrected_mf_deviation(maps, t0, Ek).values
            - (mod["z_new"].values - run_k.z_c.z.values[k0:])))
    assert map_err < 1e-6
    print(f"PASS acceptance 5: recovery rel err {max(rel_bar, rel_i):.2e}, "
          f"post-correction map err {map_err:.2e}")


def test_acceptance_6_realtime_mode(params, grid, bundle, kernels, mf_c, z0):
    # two-route equivalence of the anchored prediction
    route_err = 0.0
    for t0 in (0.25, 0.5, 1.0, 1.5, 1.75):
        zbar_hat = mf_c.z.at(t0) + np.array([0.1, -0.1])
        z_hat = mf_c.z.at(t0) + np.array([0.15, -0.05])
        a = restricted_prediction(bundle, zbar_hat, z_hat, t0, route="p2")
        b = restricted_prediction(bundle, zbar_hat, z_hat, t0, route="p0")
        route_err = max(route_err,
                        _sup(a["zbar"].values - b["zbar"].values),
                        _sup(a["g_i"].values - b["g_i"].values))
    assert route_err < 1e-6

    # truthful estimates reproduce the correct-information equilibrium
    pop = [(np.asarray(z0, dtype=float), np.zeros(2)) for _ in range(800)]
    res_truth = realtime_simulate(params, bundle, pop, truth_policy(),
                                  grid=grid, seed=0, z0=z0, D=0.0,
                                  kernels=kernels)
    truth_dev = res_truth["deviation_report"]["max_abs_deviation"]
    assert truth_dev < 2e-3

    # exactly zero-mean estimate errors leave the realized mean field at the
    # reference up to sampling noise in the initial states
    rng = np.random.default_rng(99)
    pop_mc = sample_population(
        800, init_mean=z0, init_cov=P6_INIT_COV,
        error_mean=np.zeros(2), error_cov=np.zeros((2, 2)), seed=5)
    errors = rng.multivariate_normal(np.zeros(2), P6_ERROR_COV, size=800)
    errors -= errors.mean(axis=0)
    res_zero = realtime_simulate(
        params, bundle, pop_mc,
        hold_initial_error_policy(errors, np.zeros(2)),
        grid=grid, seed=5, z0=z0, D=0.0, kernels=kernels)
    res_ref = realtime_simulate(params, bundle, pop_mc, truth_policy(),
                                grid=grid, seed=5, z0=z0, D=0.0,
                                kernels=kernels)
    err_effect = _sup(res_zero["z_A"].values - res_ref["z_A"].values)
    mc_noise = _sup(res_ref["z_A"].values - res_ref["z_c"].values)
    assert err_effect < 1e-6  # zero-mean errors cancel in the average
    assert _sup(res_zero["z_A"].values - res_zero["z_c"].values) \
        < mc_noise + 2e-3

    # quadrature prediction of the deviation under a persistent error
    pop2 = [(np.asarray(z0, dtype=float), np.zeros(2)) for _ in range(2000)]
    res_const = realtime_simulate(
        params, bundle, pop2, constant_error_policy(np.array([0.1, -0.1])),
        grid=grid, seed=1, z0=z0, D=0.0, kernels=kernels)
    mismatch = res_const["deviation_report"]["max_abs_mismatch"]
    assert mismatch < 5e-3
    print(f"PASS acceptance 6: routes {route_err:.2e}, truth dev "
          f"{truth_dev:.2e}, zero-mean effect {err_effect:.2e}, "
          f"quadrature mismatch {mismatch:.2e}")


def test_acceptance_7_unilateral_deviation_gap(params, grid, z0):
    seeds = range(1, 9)
    gaps = {}
    for N in (50, 800):
        gaps[N] = [
            epsilon_nash_gap(params, N=N, seed=s, grid=grid, z0=z0,
                             init_cov=P6_INIT_COV, D=0.0)
            for s in seeds
        ]
    all_gaps = gaps[50] + gaps[800]
    assert min(all_gaps) >= -1e-6
    mean_small, mean_large = np.mean(gaps[50]), np.mean(gaps[800])
    assert mean_large < mean_small
    print(f"PASS acceptance 7: min gap {min(all_gaps):.2e}, mean gap "
          f"N=50 {mean_small:.2e} > N=800 {mean_large:.2e}")


def test_acceptance_8_finite_population_convergence(z0):
    p = p6_params()
    grid = p.default_grid(1000)
    bundle = RiccatiBundle.solve(p, grid)
    mf = equilibrium_mf(bundle, z0)
    law = equilibrium_law(bundle, mf)
    n_seeds = 24
    var = {}
    for N in (50, 200, 800):
        finals = np.empty((n_seeds, 2))
        for s in range(n_seeds):
            pop = sample_population(
                N, init_mean=z0, init_cov=P6_INIT_COV,
                error_mean=np.zeros(2), error_cov=np.zeros((2, 2)), seed=s)
            res = simulate(p, pop, law, grid=grid, seed=s)
            finals[s] = res.x_N.terminal
        var[N] = float(np.sum(np.var(finals, axis=0, ddof=1)))
    r1 = var[50] / var[200]
    r2 = var[200] / var[800]
    # exact 1/N scaling gives 4; accept within a factor of 2 either way
    assert 2.0 <= r1 <= 8.0
    assert 2.0 <= r2 <= 8.0
    print(f"PASS acceptance 8: variance ratios 50/200 = {r1:.2f}, "
          f"200/800 = {r2:.2f} (ideal 4)")


def test_acceptance_9_byte_identical_outputs(tmp_path):
    def run_into(out, doc):
        cfg = validate_config(dict(doc, output_dir=str(out)))
        run_scenario(cfg)
        return {
            name: (out / name).read_bytes()
            for name in sorted(os.listdir(out)) if name.endswith(".csv")
        }

    evolve = {"mode": "evolve", "grid_steps": 400, "seed": 42}
    a = run_into(tmp_path / "e1", evolve)
    b = run_into(tmp_path / "e2", evolve)
    c = run_into(tmp_path / "e3", evolve)
    assert a == b == c and len(a) >= 2

    realtime = {"mode": "realtime", "grid_steps": 200, "N": 50, "seed": 42,
                "E_bar": [0.1, -0.1]}
    d = run_into(tmp_path / "r1", realtime)
    e = run_into(tmp_path / "r2", realtime)
    assert d == e

    predict = {"mode": "predict", "grid_steps": 400, "E_i": [0.2, 0.1]}
    f = run_into(tmp_path / "p1", predict)
    g = run_into(tmp_path / "p2", predict)
    assert f == g and len(f) == 3

    correct = {"mode": "correct", "grid_steps": 400, "t0": 0.5}
    h = run_into(tmp_path / "c1", correct)
    i = run_into(tmp_path / "c2", correct)
    assert h == i and len(h) == 3

    with open(tmp_path / "e1" / "manifest.json") as fh:
        h1 = json.load(fh)["config_hash"]
    with open(tmp_path / "e2" / "manifest.json") as fh:
        h2 = json.load(fh)["config_hash"]
    assert h1 == h2
    print(f"PASS acceptance 9: {len(f)} predict + {len(a)} evolve + {len(h)} correct "
          f"+ {len(d)} realtime CSVs byte-identical across reruns")
