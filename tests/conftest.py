"""Shared fixtures: the canonical 2-d parameter set solved once per session."""

import numpy as np
import pytest

from mfg_errsim import scenario
from mfg_errsim.core import equilibrium_law, equilibrium_mf
from mfg_errsim.deviations import build_maps
from mfg_errsim.params import P6_Z0, p6_params
from mfg_errsim.realtime import build_kernels
from mfg_errsim.riccati import RiccatiBundle


@pytest.fixture(autouse=True)
def _no_kept_scenario_solves():
    """Every test starts with an empty scenario cache, so a run that a test
    watches solves for itself rather than reading an earlier test's solves."""
    scenario._solved_cache.clear()


@pytest.fixture(scope="session")
def params():
    return p6_params()


@pytest.fixture(scope="session")
def grid(params):
    return params.default_grid(2000)


@pytest.fixture(scope="session")
def bundle(params, grid):
    return RiccatiBundle.solve(params, grid)


@pytest.fixture(scope="session")
def maps(bundle):
    return build_maps(bundle)


@pytest.fixture(scope="session")
def mixed_maps(params, grid):
    """Maps of a set with non-commuting A and C and non-scalar B, F, R."""
    mixed = params.with_(A=np.array([[-1.0, 0.3], [-0.2, -0.8]]),
                         B=np.array([[0.6, 0.1], [-0.2, 0.4]]),
                         C=np.array([[0.3, -0.1], [0.25, 0.2]]),
                         F=np.array([[0.2, 0.05], [-0.1, 0.3]]),
                         R=np.array([[1.2, 0.3], [0.3, 0.8]]))
    return build_maps(RiccatiBundle.solve(mixed, grid))


@pytest.fixture(scope="session")
def kernels(bundle, maps):
    return build_kernels(bundle, maps)


@pytest.fixture(scope="session")
def mf_c(bundle):
    return equilibrium_mf(bundle, P6_Z0)


@pytest.fixture(scope="session")
def law_c(bundle, mf_c):
    return equilibrium_law(bundle, mf_c)


@pytest.fixture(scope="session")
def z0():
    return np.asarray(P6_Z0, dtype=float)
