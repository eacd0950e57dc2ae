"""Time grids, path interpolation, and the fixed-step RK4 kernels."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfg_errsim import ode
from mfg_errsim.errors import (
    GridMismatchError,
    IntegrationBlowupError,
    SingularMatrixError,
)
from mfg_errsim.grid import MatrixPath, TimeGrid, VectorPath, require_same_grid
from mfg_errsim.ode import (
    _scan,
    _up_sweep,
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
def test_scan_matches_a_left_fold(w):
    # the columns [T_0 | c_0], then [0 | c_k], scan to the composed maps
    n = 3
    rng = np.random.default_rng(11)
    for K in range(1, 71):
        TC = np.eye(n, w) + 0.4 * rng.standard_normal((K, n, w))
        if K > 1:
            assert np.linalg.norm(TC[0, :, :n] @ TC[1, :, :n]
                                  - TC[1, :, :n] @ TC[0, :, :n]) > 0.1
        cols = TC.copy()
        cols[1:, :, :n] = 0.0
        got = _scan(_up_sweep(TC[:, :, :n]), cols)
        assert got.shape == (K, n, w)
        # v <- T_k v + c_k, applied to v = [I | 0], folds the maps in order
        P = np.eye(n, w)
        for k in range(K):
            P = TC[k, :, :n] @ P
            P[:, n:] += TC[k, :, n:]
            assert np.max(np.abs(got[k] - P)) <= 1e-12 * np.max(np.abs(P)), (K, k)


def test_rk4_affine_scan_composes_at_most_2k_rows(monkeypatch):
    # a doubling scan composes about K log2 K rows; the odd-even scan < 2K:
    # the up-sweep forms fewer than K matrix products, and the scan of the
    # forcing columns K - 1 matvec rows per level of length K, two batched
    # calls per level
    levels, scans = [], []
    up_sweep, scan = ode._up_sweep, ode._scan

    def counted_up_sweep(T):
        out = up_sweep(T)
        levels.extend(len(L) for L in out[1:])
        return out

    def counted_scan(lv, c):
        scans.append(len(c) - 1)
        return scan(lv, c)

    monkeypatch.setattr(ode, "_up_sweep", counted_up_sweep)
    monkeypatch.setattr(ode, "_scan", counted_scan)
    K = 2000
    grid = TimeGrid(0.0, 2.0, K)
    f = np.ones((K + 1, 3))
    rk4_affine(_varying_generator(grid.times), f, np.zeros(3), grid)
    assert 0 < sum(levels) < K
    assert len(levels) <= math.ceil(math.log2(K))
    assert 0 < sum(scans) <= 2 * K
    assert 2 * len([r for r in scans if r > 0]) <= 2 * math.ceil(math.log2(K))


def _composed_rk4_affine(H, f, v0, grid, forward):
    """The affine solve as a composition of the maps [T_k | c_k]:
    _rk4_step on [I | 0] under the forcing [0 | f] for all steps at once,
    the maps folded left in step order, node values P_k v0 + C_k.  The
    reference for StepMaps.solve."""
    v0 = np.asarray(v0, dtype=float)
    V0 = v0[:, None] if v0.ndim == 1 else v0
    n, m = V0.shape
    K = grid.steps
    Hh = half_nodes(H)
    fh = None if f is None else half_nodes(f).reshape(2 * K + 1, n, -1)
    w = n if fh is None else n + fh.shape[2]
    if forward:
        h, nodes = grid.dt, np.arange(1, K + 1)
        stages = (slice(0, 2 * K, 2), slice(1, 2 * K, 2), slice(2, None, 2))
    else:
        h, nodes = -grid.dt, np.arange(K - 1, -1, -1)
        stages = (slice(2 * K, 0, -2), slice(2 * K - 1, None, -2), slice(2 * K - 2, None, -2))
    Hs = [Hh[j] for j in stages]
    fs = None if fh is None else [fh[j] for j in stages]

    def rhs(i, v):
        dv = Hs[i] @ v
        if fs is not None:
            dv[:, :, n:] += fs[i]
        return dv

    out = np.empty((K + 1, n, m))
    out[0 if forward else K] = V0
    TC = ode._rk4_step(rhs, 0, np.broadcast_to(np.eye(n, w), (K, n, w)), h, 1)
    PC, P = np.empty_like(TC), np.eye(n, w)
    for k in range(K):
        P = TC[k, :, :n] @ P
        P[:, n:] += TC[k, :, n:]
        PC[k] = P
    vals = PC[:, :, :n] @ V0
    if fh is not None:
        vals += PC[:, :, n:]
    out[nodes] = vals
    return out.reshape((K + 1,) + v0.shape)


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(n=st.integers(1, 4), K=st.integers(1, 70), forward=st.booleans(),
       columns=st.sampled_from([None, 1, 3]), forcing=st.sampled_from(["own", "shared", None]),
       start=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_step_maps_solve_is_the_composed_scan_and_superposes(n, K, forward, columns, forcing,
                                                            start, seed):
    # columns None is a vector state; a shared forcing is a vector path
    # driving every column of a matrix state; start puts the run on nodes
    # k0..K of the grid the step maps were built on
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.5, K)
    k0 = min(int(start * K), K - 1)
    t = grid.times[:, None, None]
    H = (rng.standard_normal((n, n)) + np.sin(2.0 * t) * rng.standard_normal((n, n))
         + t * rng.standard_normal((n, n)))
    shape = (n,) if columns is None else (n, columns)
    fshape = {"own": shape, "shared": (n,), None: None}[forcing]
    steps = ode.StepMaps(H, grid, forward)
    sub = grid.subgrid(k0)

    def draw():
        v0 = rng.standard_normal(shape)
        if fshape is None:
            return None, v0
        return rng.standard_normal((K - k0 + 1,) + fshape), v0

    (f1, v1), (f2, v2) = draw(), draw()
    got = steps.solve(f1, v1, k0)
    ref = _composed_rk4_affine(H[k0:], f1, v1, sub, forward)
    assert got.shape == ref.shape == (K - k0 + 1,) + shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    npt.assert_array_equal(got[0 if forward else -1], v1)

    a, b = rng.uniform(-2.0, 2.0, 2)
    mixed = steps.solve(None if f1 is None else a * f1 + b * f2, a * v1 + b * v2, k0)
    parts = a * got + b * steps.solve(f2, v2, k0)
    assert np.max(np.abs(mixed - parts)) <= 1e-12 * max(np.max(np.abs(parts)), scale)

    if f1 is not None:
        j = int(rng.integers(0, K - k0 + 1))
        bad = f1.copy()
        bad[(j,) + (0,) * len(fshape)] = np.inf
        loop_f = bad if forcing == "own" or columns is None else bad[..., None]
        nodes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationBlowupError) as ei:
                steps.solve(bad, v1, k0)
            nodes.append(ei.value.node)
            with pytest.raises(IntegrationBlowupError) as ei:
                _affine_step_loop(H[k0:], loop_f, v1, sub, forward)
            nodes.append(k0 + ei.value.node)
        assert nodes[0] == nodes[1]


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("k0", [1500, 1990])
def test_a_late_run_scans_only_its_sub_tree(monkeypatch, forward, k0):
    # a run of K - k0 steps scans the kept levels' sub-tree from its first
    # step rounded down to a multiple of the smallest power of two >= K - k0:
    # fewer than 2 (K - k0) columns, and the bits of the whole grid's scan
    # with zero columns outside the run
    K = 2000
    grid = TimeGrid(0.0, 2.0, K)
    steps = ode.StepMaps(_varying_generator(grid.times), grid, forward, forcing=False)
    v0 = np.arange(6.0).reshape(3, 2) - 2.5
    scan, columns = ode._scan, []

    def counted_scan(lv, c):
        columns.append(len(c))
        return scan(lv, c)

    monkeypatch.setattr(ode, "_scan", counted_scan)
    got = steps.solve(None, v0, k0)
    assert 0 < max(columns) <= 2 * (K - k0)
    first = k0 if forward else 0
    c = np.zeros((K, 3, 2))
    c[first] = steps.T[first] @ v0
    whole = scan(steps.levels, c)[first:first + K - k0]
    npt.assert_array_equal(got[1:] if forward else got[-2::-1], whole)


def test_step_maps_reject_a_run_off_the_grid_and_an_unbuilt_forcing():
    grid = TimeGrid(0.0, 1.0, 10)
    H = _varying_generator(grid.times)
    steps = ode.StepMaps(H, grid)
    for k0 in (-1, 10, 11):
        with pytest.raises(ValueError, match="starts at a node"):
            steps.solve(None, np.ones(3), k0)
    with pytest.raises(ValueError, match="forcing=False"):
        ode.StepMaps(H, grid, forcing=False).solve(np.ones((11, 3)), np.ones(3))


def test_fundamental_solution_constant_coefficients():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = TimeGrid(0.0, 1.0, 200)
    Phi = fundamental_solution(MatrixPath(g, np.broadcast_to(A, (201, 2, 2)).copy()))
    npt.assert_array_equal(Phi.initial, np.eye(2))
    npt.assert_allclose(Phi.terminal, expm(A), atol=1e-10)


def test_fundamental_solution_midgrid_anchor_transition_property():
    rng = np.random.default_rng(1)
    g = TimeGrid(0.0, 1.0, 100)
    H = MatrixPath(g, rng.standard_normal((101, 2, 2)) * 0.4)
    Phi0 = fundamental_solution(H)
    k = g.index_of(0.5)
    # anchored at t_k by slicing: Phi_half(t) = Phi0(t) Phi0(t_k)^-1 on [t_k, T]
    Phi_half = fundamental_solution(H.slice(k))
    assert Phi_half.grid == g.subgrid(k)
    npt.assert_array_equal(Phi_half.initial, np.eye(2))
    expected = Phi0.values[k:] @ np.linalg.inv(Phi0[k])
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
