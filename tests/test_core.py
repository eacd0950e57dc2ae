"""Equilibrium mean field, feedback law, cost functional, and diagnostics."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.core import (
    cost,
    epsilon_nash_gap,
    equilibrium_mf,
    existence_check,
)
from mfg_errsim.errors import PopulationError
from mfg_errsim.grid import TimeGrid, VectorPath
from mfg_errsim.params import P6_Z0, p6_params, s1_params
from mfg_errsim.realtime import realtime_simulate, truth_policy
from mfg_errsim.riccati import RiccatiBundle

# Frozen reference for the sufficient-uniqueness bound on the canonical
# fixture, computed once from the same closed-form ingredients evaluated
# with an independent dense quadrature.  The fixture does NOT satisfy the
# sufficient condition; the value is kept as a regression constant.
EXISTENCE_LHS = 2.2465580423706957


def test_equilibrium_mf_starts_at_z0(bundle, z0):
    mf = equilibrium_mf(bundle, z0)
    npt.assert_array_equal(mf.z.initial, z0)
    assert mf.z.grid.steps == bundle.grid.steps


@pytest.mark.parametrize("z0", [[0.3, 0.5, 0.1], [np.nan, 0.0], [[0.3], [0.5]]],
                         ids=["width_3", "nan", "column"])
@pytest.mark.parametrize("call", ["equilibrium_mf", "realtime_simulate"])
def test_a_z0_that_is_not_a_finite_n_vector_is_a_population_error(params, z0, call):
    bundle = RiccatiBundle.solve(params, params.default_grid(200))
    pop = [(np.asarray(P6_Z0), np.zeros(2))] * 3
    run = {"equilibrium_mf": lambda: equilibrium_mf(bundle, z0),
           "realtime_simulate": lambda: realtime_simulate(params, bundle, pop, truth_policy(),
                                                          z0=z0, D=0.0)}[call]
    # a PopulationError is an MfgError and a ValueError
    with pytest.raises(PopulationError, match=rf"z0 .*n = 2.*{re.escape(str(np.shape(z0)))}"):
        run()


def test_equilibrium_control_is_consistent_with_representation(bundle, mf_c, law_c):
    # two representations of the same equilibrium offset:
    # P1 z + g  must equal  P0 z + G  along the whole path
    lhs = (
        np.einsum("kij,kj->ki", bundle.P1.values, mf_c.z.values)
        + law_c.g.values
    )
    rhs = (
        np.einsum("kij,kj->ki", bundle.P0.values, mf_c.z.values)
        + bundle.G.values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_perturbed_mf_with_zero_error_is_equilibrium(bundle, mf_c, z0):
    mf = equilibrium_mf(bundle, z0 + np.zeros(2))
    npt.assert_array_equal(mf.z.values, mf_c.z.values)


def test_perturbed_mf_shifts_initial_state(bundle, z0):
    E = np.array([0.2, -0.1])
    mf = equilibrium_mf(bundle, z0 + E)
    npt.assert_array_equal(mf.z.initial, z0 + E)


def test_cost_on_constant_paths_matches_hand_computation():
    one = np.eye(1)
    p = s1_params().with_(
        Q_I=one, Q=0 * one, Qbar_I=2 * one, Qbar=0 * one, T=1.0,
    )
    g = TimeGrid(0.0, 1.0, 10)
    x = VectorPath(g, np.ones((11, 1)))
    u = VectorPath(g, 2.0 * np.ones((11, 1)))
    z = VectorPath(g, np.zeros((11, 1)))
    # running |x|^2 + |u|^2 R = 1 + 4 over unit time, terminal 2 |x(T)|^2
    assert cost(p, x, u, z) == pytest.approx(7.0, abs=1e-12)


def test_cost_penalizes_mean_field_tracking():
    p = p6_params()
    g = TimeGrid(0.0, 2.0, 4)
    x = VectorPath(g, np.zeros((5, 2)))
    u = VectorPath(g, np.zeros((5, 2)))
    z = VectorPath(g, np.ones((5, 2)))
    base = cost(p, x, u, VectorPath(g, np.zeros((5, 2))))
    assert cost(p, x, u, z) > base


def test_existence_bound_regression_value(params, grid):
    out = existence_check(params, grid)
    assert out["lhs"] == pytest.approx(EXISTENCE_LHS, rel=1e-9)
    assert out["satisfied"] is False


def test_existence_bound_satisfied_for_weak_coupling(params, grid):
    weak = params.with_(C=0.01 * np.eye(2), F=0.01 * np.eye(2),
                        Gamma=0.01 * np.eye(2), Gammabar=0.01 * np.eye(2))
    out = existence_check(weak, weak.default_grid(500))
    assert out["satisfied"] is True


def test_existence_check_runs_where_A_is_zero():
    # S1 has A = 0, so the step map expm(A dt) is that of a zero matrix
    p = s1_params()
    assert np.isfinite(existence_check(p, p.default_grid(100))["lhs"])


def test_existence_check_rejects_degenerate_split(params, grid):
    # Q_I = Q = 0 leaves the running split Qp = Q_I + Q singular
    zero = np.zeros((2, 2))
    degenerate = params.with_(Q_I=zero, Q=zero)
    with pytest.raises(ValueError, match="Qp must be positive definite"):
        existence_check(degenerate, grid)


def test_epsilon_nash_gap_nonnegative_without_noise():
    # the init_cov spread is what keeps the gap positive: with every agent at
    # z0 the equilibrium is the best response but for the grid's second-order
    # error, and the gap is -8.2e-9 here (see the next test)
    p = p6_params()
    gap = epsilon_nash_gap(
        p, N=8, seed=0, grid=p.default_grid(500),
        z0=P6_Z0, init_cov=0.003 * np.eye(2), D=0.0,
    )
    assert gap >= -1e-9
    assert gap < 1e-2


def test_the_noiseless_gap_without_spread_is_a_second_order_grid_error():
    # a lone agent of an uncoupled P6 starting at z0 is its own mean field:
    # the equilibrium is its best response but for the error of the Euler
    # paths and the cost quadrature, so the gap, -4.9e-7 at K = 200,
    # shrinks about 4x per doubling of K
    p = p6_params()
    zero = np.zeros((2, 2))
    lone = p.with_(C=zero, F=zero)
    gaps = [epsilon_nash_gap(lone, N=1, seed=0, grid=lone.default_grid(K), z0=P6_Z0, D=0.0)
            for K in (200, 400, 800)]
    assert -1e-6 < gaps[0] < -1e-7
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.8 < coarse / fine < 4.2


def test_a_lone_agent_needs_a_game_without_any_coupling():
    # any nonzero entry of C or F couples the game, however small
    p = p6_params()
    grid, zero = p.default_grid(200), np.zeros((2, 2))
    for coupled in (p.with_(C=1e-9 * np.eye(2)), p.with_(C=zero, F=0.5 * np.eye(2))):
        with pytest.raises(PopulationError, match="N must be >= 2"):
            epsilon_nash_gap(coupled, N=1, seed=0, grid=grid, z0=P6_Z0, D=0.0)
    gap = epsilon_nash_gap(p.with_(C=zero, F=zero), N=1, seed=0, grid=grid, z0=P6_Z0, D=0.0)
    assert np.isfinite(gap)
