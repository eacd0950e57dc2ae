"""Time grids, path interpolation, and the fixed-step RK4 kernels."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim import ode
from mfg_errsim.errors import (
    GridMismatchError,
    IntegrationBlowupError,
    SingularMatrixError,
)
from mfg_errsim.grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from mfg_errsim.ode import (
    _prefix_compose,
    expm as ode_expm,
    fundamental_solution,
    half_nodes,
    invert_path,
    matrix_powers,
    rk4_affine,
    rk4_nonlinear,
    rk4_steps,
)
from scipy.linalg import expm


def test_grid_nodes_have_no_accumulation_drift():
    g = TimeGrid(0.0, 2.0, 2000)
    assert g.dt == pytest.approx(0.001)
    assert g.times[0] == 0.0
    assert g.times[-1] == pytest.approx(2.0, abs=0.0)
    # node k must be exactly t_start + k * dt
    npt.assert_array_equal(g.times, 0.0 + np.arange(2001) * g.dt)


def test_grid_index_of_roundtrip_and_rejection():
    g = TimeGrid(0.0, 2.0, 400)
    for k in (0, 1, 57, 400):
        assert g.index_of(g.times[k]) == k
    with pytest.raises(ValueError):
        g.index_of(0.00123)
    with pytest.raises(ValueError):
        g.index_of(2.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 2.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)


def test_subgrid_spans_requested_nodes():
    g = TimeGrid(0.0, 2.0, 100)
    sub = g.subgrid(25)
    assert sub.t_start == pytest.approx(0.5)
    assert sub.t_end == pytest.approx(2.0)
    assert sub.steps == 75
    with pytest.raises(ValueError):
        g.subgrid(50, 50)


def test_path_interpolation_is_exact_for_linear_data():
    g = TimeGrid(0.0, 1.0, 10)
    vals = np.column_stack([2.0 * g.times + 1.0, -g.times])
    p = VectorPath(g, vals)
    npt.assert_allclose(p.at(0.55), [2.1, -0.55], atol=1e-14)
    npt.assert_array_equal(p.at(g.times[3]), vals[3])
    assert p.initial is not None and len(p) == 11
    with pytest.raises(ValueError):
        p.at(1.5)


def test_path_slice_matches_subgrid():
    g = TimeGrid(0.0, 1.0, 10)
    p = VectorPath(g, np.arange(22.0).reshape(11, 2))
    s = p.slice(4)
    assert s.grid.steps == 6
    npt.assert_array_equal(s.values, p.values[4:])


@pytest.mark.parametrize("cls, shape", [(VectorPath, (11, 2)), (MatrixPath, (11, 2, 2))])
def test_path_values_are_a_read_only_view(cls, shape):
    a = np.zeros(shape)
    p = cls(TimeGrid(0.0, 1.0, 10), a)
    for values in (p.values, p.slice(4).values):
        with pytest.raises(ValueError, match="read-only"):
            values[0] += 1.0
    # the caller's array stays writable, and the path sees its writes
    a[0] += 1.0
    assert p.values[0].flat[0] == 1.0


def test_path_rejects_nonfinite_and_misshaped_values():
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        VectorPath(g, np.ones((4, 2)))
    bad = np.ones((5, 2))
    bad[2, 0] = np.nan
    with pytest.raises(ValueError):
        VectorPath(g, bad)


def test_require_same_grid():
    a = VectorPath(TimeGrid(0.0, 1.0, 10), np.zeros((11, 1)))
    b = VectorPath(TimeGrid(0.0, 1.0, 20), np.zeros((21, 1)))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def test_rk4_matches_scalar_exponential():
    g = TimeGrid(0.0, 1.0, 100)
    H = np.broadcast_to(np.array([[-2.0]]), (101, 1, 1))
    vals = rk4_affine(H, None, np.array([3.0]), g, forward=True)
    npt.assert_allclose(vals[:, 0], 3.0 * np.exp(-2.0 * g.times), atol=1e-8)


def test_rk4_backward_inverts_forward():
    rng = np.random.default_rng(0)
    g = TimeGrid(0.0, 1.0, 200)
    H = rng.standard_normal((201, 3, 3)) * 0.5
    v0 = rng.standard_normal(3)
    fwd = rk4_affine(H, None, v0, g, forward=True)
    back = rk4_affine(H, None, fwd[-1], g, forward=False)
    npt.assert_allclose(back[0], v0, atol=1e-8)


def test_rk4_is_fourth_order_with_exact_coefficients():
    def solve(steps):
        g = TimeGrid(0.0, 1.0, steps)
        vals = rk4_nonlinear(lambda t, v: np.cos(t) * v, np.array([1.0]), g,
                             forward=True)
        return vals[-1, 0]

    exact = np.exp(np.sin(1.0))
    e1 = abs(solve(25) - exact)
    e2 = abs(solve(50) - exact)
    assert e1 / e2 > 12.0  # ~16 for a 4th-order scheme


def test_rk4_affine_with_interpolated_coefficients_is_second_order():
    # half-step coefficients come from linear interpolation of node values,
    # which caps the order at two for genuinely time-varying H
    def solve(steps):
        g = TimeGrid(0.0, 1.0, steps)
        H = np.cos(g.times)[:, None, None]
        vals = rk4_affine(H, None, np.array([1.0]), g, forward=True)
        return vals[-1, 0]

    exact = np.exp(np.sin(1.0))
    e1 = abs(solve(25) - exact)
    e2 = abs(solve(50) - exact)
    assert 3.0 < e1 / e2 < 6.0  # ~4 for a 2nd-order scheme


def test_rk4_nonlinear_matches_logistic():
    g = TimeGrid(0.0, 2.0, 400)
    vals = rk4_nonlinear(lambda t, v: v * (1.0 - v), np.array([0.1]), g, forward=True)
    exact = 1.0 / (1.0 + 9.0 * np.exp(-g.times))
    npt.assert_allclose(vals[:, 0], exact, atol=1e-9)


def test_rk4_nonlinear_reports_finite_escape():
    g = TimeGrid(0.0, 2.0, 2000)
    with warnings.catch_warnings(), pytest.raises(IntegrationBlowupError) as ei:
        warnings.simplefilter("error")
        rk4_nonlinear(lambda t, v: v * v, np.array([1.0]), g, forward=True)
    # dv = v^2, v(0) = 1 escapes at t = 1
    assert 0.9 < ei.value.time < 1.1


def _affine_step_loop(H, f, v0, grid, forward):
    """The sequential reference: rk4_steps on the affine rhs H v + f."""
    Hh, fh = half_nodes(H), half_nodes(f)

    def rhs(i, v):
        return Hh[i] @ v + fh[i]

    return rk4_steps(rhs, v0, grid, forward)


def _varying_generator(times):
    """Time-varying n = 3 generator whose values at different times do not
    commute."""
    t = times[:, None, None]
    return (np.array([[-1.0, 0.4, 0.0], [-0.3, -0.6, 0.5], [0.2, 0.0, -0.8]])
            + np.sin(3.0 * t) * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
            + t * np.array([[0.3, 0.0, 0.0], [0.0, 0.0, -0.4], [0.0, 0.6, 0.0]]))


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("matrix", [False, True])
@pytest.mark.parametrize("span", ["full", "sub", "one-step", "2-step", "3-step",
                                  "5-step", "33-step"])
@pytest.mark.parametrize("with_H", [True, False])
def test_rk4_affine_scan_matches_step_loop(forward, matrix, span, with_H):
    grid = TimeGrid(0.0, 2.0, 500)
    k0, k1 = {"full": (0, 500), "sub": (120, 371), "one-step": (77, 78),
              "2-step": (77, 79), "3-step": (200, 203), "5-step": (495, 500),
              "33-step": (0, 33)}[span]
    sub = grid.subgrid(k0, k1)
    H = _varying_generator(grid.times)
    assert np.linalg.norm(H[10] @ H[400] - H[400] @ H[10]) > 0.1
    rng = np.random.default_rng(3)
    shape = (3, 2) if matrix else (3,)
    f = np.cos(grid.times)[(slice(None),) + (None,) * len(shape)] * rng.standard_normal(shape)
    v0 = rng.standard_normal(shape)
    # a zero generator leaves pure quadrature of the forcing
    Hs = H[k0:k1 + 1] if with_H else np.zeros_like(H[k0:k1 + 1])
    got = rk4_affine(Hs, f[k0:k1 + 1], v0, sub, forward)
    ref = _affine_step_loop(Hs, f[k0:k1 + 1], v0, sub, forward)
    assert got.shape == ref.shape == (k1 - k0 + 1,) + shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("steps, j", [
    pytest.param(20, 0, id="0"), pytest.param(20, 7, id="7"), pytest.param(20, 20, id="20"),
    pytest.param(21, 0, id="odd-0"), pytest.param(21, 20, id="odd-20"),
    pytest.param(21, 21, id="odd-21"),
])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_rk4_affine_blowup_node_matches_step_loop(forward, steps, j, bad):
    # a non-finite forcing at node j reaches the steps on either side of it,
    # so the loop stops at node j, or at the first node it steps to from an
    # end of the grid; the scan names the same node, without a warning
    g = TimeGrid(0.0, 1.0, steps)
    H = _varying_generator(g.times)
    f = np.ones((steps + 1, 3))
    f[j, 1] = bad
    nodes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (rk4_affine, _affine_step_loop):
            with pytest.raises(IntegrationBlowupError) as ei:
                solve(H, f, np.zeros(3), g, forward)
            nodes.append(ei.value.node)
            assert ei.value.time == g.times[ei.value.node]
    if forward:
        expected = 1 if j == 0 else j
    else:
        expected = steps - 1 if j == steps else j
    assert nodes == [expected] * 2


@pytest.mark.parametrize("w", [3, 5])
def test_prefix_compose_matches_a_left_fold(w):
    n = 3
    rng = np.random.default_rng(11)
    for K in range(1, 71):
        TC = np.eye(n, w) + 0.4 * rng.standard_normal((K, n, w))
        if K > 1:
            assert np.linalg.norm(TC[0, :, :n] @ TC[1, :, :n]
                                  - TC[1, :, :n] @ TC[0, :, :n]) > 0.1
        got = _prefix_compose(TC.copy(), n)
        assert got.shape == (K, n, w)
        # v <- T_k v + c_k, applied to v = [I | 0], folds the maps in order
        P = np.eye(n, w)
        for k in range(K):
            P = TC[k, :, :n] @ P
            P[:, n:] += TC[k, :, n:]
            assert np.max(np.abs(got[k] - P)) <= 1e-12 * np.max(np.abs(P)), (K, k)


def test_rk4_affine_scan_composes_at_most_2k_rows(monkeypatch):
    # a doubling scan composes about K log2 K rows; the odd-even scan < 2K
    calls = []
    compose = ode._compose

    def counted(L, R, n):
        calls.append(len(L))
        return compose(L, R, n)

    monkeypatch.setattr(ode, "_compose", counted)
    K = 2000
    grid = TimeGrid(0.0, 2.0, K)
    f = np.ones((K + 1, 3))
    rk4_affine(_varying_generator(grid.times), f, np.zeros(3), grid)
    assert 0 < sum(calls) <= 2 * K
    assert len(calls) <= 2 * math.ceil(math.log2(K))


def test_fundamental_solution_constant_coefficients():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = TimeGrid(0.0, 1.0, 200)
    Phi = fundamental_solution(MatrixPath(g, np.broadcast_to(A, (201, 2, 2)).copy()), 0.0)
    npt.assert_array_equal(Phi.initial, np.eye(2))
    npt.assert_allclose(Phi.terminal, expm(A), atol=1e-10)


def test_fundamental_solution_midgrid_anchor_transition_property():
    rng = np.random.default_rng(1)
    g = TimeGrid(0.0, 1.0, 100)
    H = MatrixPath(g, rng.standard_normal((101, 2, 2)) * 0.4)
    Phi0 = fundamental_solution(H, 0.0)
    Phi_half = fundamental_solution(H, 0.5)
    k = g.index_of(0.5)
    npt.assert_array_equal(Phi_half[k], np.eye(2))
    # Phi_half(t) = Phi0(t) Phi0(0.5)^-1
    expected = Phi0.values @ np.linalg.inv(Phi0[k])
    npt.assert_allclose(Phi_half.values, expected, atol=1e-9)


def test_invert_path_guards_singularity():
    g = TimeGrid(0.0, 1.0, 2)
    vals = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    vals[1] = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        invert_path(MatrixPath(g, vals))


def _random_matrices(seed, norms):
    """(A, 1-norm) pairs: a standard normal n x n matrix for n = 1..6,
    rescaled to each 1-norm."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for norm in norms:
            A = rng.standard_normal((n, n))
            yield A * (norm / np.linalg.norm(A, 1)), norm


def test_expm_matches_scipy():
    # up to 1-norm 2 every Pade degree runs unscaled; there scipy's own
    # error is below 1e-15
    for A, _ in _random_matrices(4, np.logspace(-4, np.log10(2.0), 40)):
        ref = expm(A)
        assert np.linalg.norm(ode_expm(A) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_expm_scaling_and_squaring_is_exact_to_conditioning():
    # 1-norms up to 50 go through scaling and squaring.  The references are
    # exact to round-off: Q diag(e^lam) Q' for a symmetric matrix, and the
    # finite exponential series of a shifted nilpotent (Jordan) block.  The
    # bound is the exponential's condition, about the 1-norm, times 1e-15.
    rng = np.random.default_rng(5)
    for A, norm in _random_matrices(6, np.logspace(-4, np.log10(50.0), 30)):
        tol = 1e-15 * max(10.0, norm)
        S = A + A.T
        S *= norm / max(np.linalg.norm(S, 1), 1e-300)
        lam, Q = np.linalg.eigh(S)
        ref = (Q * np.exp(lam)) @ Q.T
        assert np.linalg.norm(ode_expm(S) - ref) <= tol * np.linalg.norm(ref)
        n = A.shape[0]
        shift = rng.uniform(-0.5, 0.5) * norm
        N = np.diag(np.full(n - 1, rng.uniform(-0.5, 0.5) * norm), 1)
        ref = np.exp(shift) * sum(np.linalg.matrix_power(N, j) / math.factorial(j)
                                  for j in range(n))
        assert np.linalg.norm(ode_expm(shift * np.eye(n) + N) - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("K", [0, 1, 2, 7, 8, 37])
def test_matrix_powers_match_repeated_products(K):
    M = np.random.default_rng(7).standard_normal((3, 3)) * 0.6
    got = matrix_powers(M, K)
    assert got.shape == (K + 1, 3, 3)
    for j in range(K + 1):
        npt.assert_allclose(got[j], np.linalg.matrix_power(M, j), rtol=0, atol=1e-13)
