"""Paper identities on random non-commuting, non-square parameter sets.

The P6 fixture is a multiple of the identity in every matrix, so a
transposed or reordered product does not change its results.  These draws
have n, d in {1, 2, 3}, a Hurwitz A, A + C not commuting with A, and
non-scalar B, F, R and Gamma.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfg_errsim import correction
from mfg_errsim.correction import identifiability, recover_errors, residual_path
from mfg_errsim.deviations import (
    actual_mf_deviation,
    build_maps,
    expected_trajectory_deviation,
)
from mfg_errsim.limiting import solve_limiting, solve_limiting_batch
from mfg_errsim.params import SystemParams
from mfg_errsim.riccati import RiccatiBundle

STEPS = 400
TOL = 1e-5
# The maps and the direct solves agree only to second order in dt (the
# midpoint rule of ode.half_nodes), and the least-squares recovery amplifies
# that gap by the conditioning of the stacked system (up to 5e3 here): at
# 400 steps the recovered errors are off by up to 5e-4 relative, at the
# default 2000 steps these draws are within 7.7e-6.
ROUND_TRIP_STEPS = 2000


def build_correction_problem(maps, Ob1, t0):
    """The correction problem with a zero z_i(t0): the round trip below
    reads the recovered errors, not the z_A(t0) built from it.  (Its body
    stays as it was, and so do its draws, which hypothesis seeds from the
    test's source under derandomize.)"""
    return correction.build_correction_problem(maps, Ob1, t0, np.zeros(maps.params.n))


def _random_params(n, d, rng):
    while True:
        A = -1.5 * np.eye(n) + 0.4 * rng.standard_normal((n, n))
        C = 0.3 * rng.standard_normal((n, n))
        if (np.max(np.linalg.eigvals(A).real) <= -0.5
                and np.max(np.linalg.eigvals(A + C).real) <= -0.3
                and (n == 1 or np.linalg.norm(A @ C - C @ A) >= 1e-2)):
            break
    L = rng.standard_normal((d, d))
    I = np.eye(n)
    return SystemParams(
        A=A, B=rng.standard_normal((n, d)), C=C,
        F=0.3 * rng.standard_normal((n, d)), D=np.zeros((n, n)),
        Q_I=I, Q=I, Qbar_I=0.5 * I, Qbar=0.5 * I, R=np.eye(d) + 0.3 * L @ L.T,
        Gamma=0.3 * rng.standard_normal((n, n)), Gammabar=0.3 * rng.standard_normal((n, n)),
        eta=rng.standard_normal(n), etabar=rng.standard_normal(n),
        s=rng.standard_normal(n), sbar=rng.standard_normal(n),
        T=1.0,
    )


@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n=st.integers(1, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_identities_hold_for_general_parameters(n, d, seed):
    rng = np.random.default_rng(seed)
    params = _random_params(n, d, rng)
    bundle = RiccatiBundle.solve(params, params.default_grid(STEPS))
    P0, P1, P2 = bundle.P0.values, bundle.P1.values, bundle.P2.values

    assert np.max(np.abs(P1 - P1.transpose(0, 2, 1))) <= 1e-10 * max(1.0, np.max(np.abs(P1)))
    assert np.max(np.abs(P2 - (P0 - P1))) <= TOL
    assert np.max(np.abs(bundle.G1.values - bundle.G.values)) <= TOL

    maps = build_maps(bundle)
    z0 = rng.standard_normal(n)
    E_i = 0.2 * rng.standard_normal(n)
    E_bar = 0.2 * rng.standard_normal(n)
    run = solve_limiting(bundle, z0, E_i, E_bar)
    ref = solve_limiting(bundle, z0, np.zeros(n), np.zeros(n))
    dz = actual_mf_deviation(maps, E_bar)["dz"].values
    assert np.max(np.abs(dz - (run.z_A.values - ref.z_A.values))) <= TOL
    dx = expected_trajectory_deviation(maps, E_i, E_bar).values
    assert np.max(np.abs(dx - (run.x_i.values - ref.x_i.values))) <= TOL


@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n=st.integers(1, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_correction_round_trip_recovers_the_errors(n, d, seed):
    rng = np.random.default_rng(seed)
    params = _random_params(n, d, rng)
    bundle = RiccatiBundle.solve(params, params.default_grid(ROUND_TRIP_STEPS))
    z0 = rng.standard_normal(n)
    E_i = 0.2 * rng.standard_normal(n)
    E_bar = 0.2 * rng.standard_normal(n)
    run = solve_limiting(bundle, z0, E_i, E_bar)
    ob1 = residual_path(run.observable(), run.mf_i.z, run.g_i, bundle)
    problem = build_correction_problem(build_maps(bundle), ob1, 0.5)
    assume(identifiability(problem)["identifiable"])
    result = recover_errors(problem)
    truth = np.concatenate([E_bar, E_i])
    got = np.concatenate([result.E_bar, result.E_i])
    assert np.linalg.norm(got - truth) <= TOL * np.linalg.norm(truth)


def _limiting_paths(run):
    return [run.z_c.z, run.z_c.ubar, run.mf_i.z, run.mf_i.ubar, run.g_i,
            run.zbar.z, run.zbar.ubar, run.g_bar, run.z_A, run.ubar_A, run.x_i, run.u_i]


@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(n=st.integers(1, 3), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batched_limiting_runs_match_single_solves(n, d, seed):
    rng = np.random.default_rng(seed)
    params = _random_params(n, d, rng)
    bundle = RiccatiBundle.solve(params, params.default_grid(STEPS))
    z0, x0 = rng.standard_normal(n), rng.standard_normal(n)
    E = 0.2 * rng.standard_normal((2, n))
    # the second pair shares the first's E_i and has E_i = E_bar; the
    # third repeats the first
    pairs = [(E[0], E[1]), (E[0], E[0]), (E[0], E[1])]
    runs = solve_limiting_batch(bundle, z0, pairs, x0)
    assert len(runs) == 3
    for run, (E_i, E_bar) in zip(runs, pairs):
        single = solve_limiting(bundle, z0, E_i, E_bar, x0)
        for got, want in zip(_limiting_paths(run), _limiting_paths(single)):
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale
