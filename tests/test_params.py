"""Parameter container validation and the canonical fixtures."""

import numpy as np
import numpy.testing as npt
import pytest

from mfg_errsim.params import P6_Z0, SystemParams, p6_params, s1_params


def test_p6_dimensions_and_compounds():
    p = p6_params()
    assert p.n == 2 and p.d == 2
    npt.assert_array_equal(p.A, -np.eye(2))
    npt.assert_allclose(p.BRB, 0.25 * np.eye(2))
    npt.assert_allclose(p.BFRB, 0.5 * np.eye(2))
    npt.assert_allclose(p.RinvBt, 0.5 * np.eye(2))
    # composite weight Q*Gamma - Q_I - Q and target Q_I s + Q eta
    npt.assert_allclose(p.Qcal, -np.eye(2))
    npt.assert_allclose(p.nu, p.s)
    assert p.T == 2.0
    npt.assert_array_equal(p.sbar, p.s)


def test_scalar_inputs_are_promoted_to_matrices():
    p = s1_params()
    assert p.n == 1 and p.d == 1
    assert p.A.shape == (1, 1)
    assert p.eta.shape == (1,)


def test_shape_mismatch_rejected():
    p = p6_params()
    with pytest.raises(ValueError):
        p.with_(B=np.ones((3, 2)))
    with pytest.raises(ValueError):
        p.with_(s=np.zeros(3))
    with pytest.raises(ValueError):
        p.with_(T=-1.0)


def test_F_is_n_by_d():
    # F multiplies the d-vector ubar, so with one control input it is n x 1
    p = p6_params().with_(B=[[0.6], [-0.2]], F=[[0.2], [0.1]], R=[[1.0]])
    assert p.F.shape == (2, 1)
    assert p.BFRB.shape == (2, 2) and p.FRB.shape == (2, 2)
    with pytest.raises(ValueError, match="F must be 2x1"):
        p6_params().with_(B=[[0.6], [-0.2]], R=[[1.0]])


def test_cost_weights_must_be_positive_definite():
    p = p6_params()
    with pytest.raises(ValueError, match="positive definite"):
        p.with_(Q=-np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        p.with_(R=np.array([[1.0, 0.5], [0.0, 1.0]]))
    # the relaxed escape hatch admits semidefinite fixtures
    q = p.with_(Q=np.zeros((2, 2)), relaxed=True)
    npt.assert_array_equal(q.Q, np.zeros((2, 2)))


def test_with_creates_modified_copy():
    p = p6_params()
    q = p.with_(T=3.0)
    assert q.T == 3.0 and p.T == 2.0
    npt.assert_array_equal(q.A, p.A)


def test_default_grid_spans_horizon():
    p = p6_params()
    g = p.default_grid()
    assert g.steps == 2000
    assert g.t_start == 0.0 and g.t_end == p.T
    assert p.default_grid(100).steps == 100


def test_fixture_constants():
    npt.assert_array_equal(P6_Z0, [0.3, 0.5])
