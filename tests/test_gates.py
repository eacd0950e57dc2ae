"""Standing gates: the output digest and the order table.

The digest test runs tools/csv_digest.py on the package and diffs its
output against tests/data/digest.txt, so a change that moves any bit of a
scenario CSV or of a direct call's arrays fails here until the file is
regenerated, which a change that moves bits on purpose does by running
this file as a script:

    PYTHONPATH=src python3 tests/test_gates.py

The order table solves the Riccati bundle and everything built on it at
K = 100, 200 and 400 steps, on the digest's two parameter sets and on an
n = 4, d = 3 set, and checks each object's error against K = 3200 steps:
P1 and P0 are exact, and every RK4 object is second order in the step,
since half_nodes averages node values for the midpoints.
"""

import difflib
import os
import platform
import runpy
import subprocess
import sys

import numpy as np
import pytest

from mfg_errsim.params import SystemParams
from mfg_errsim.riccati import RiccatiBundle
from mfg_errsim.scenario import validate_config

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "csv_digest.py")
DIGEST = os.path.join(ROOT, "tests", "data", "digest.txt")


def _build():
    """The header of the digest file: numpy's version, the platform and the
    SIMD extensions numpy found on the CPU, which pick the kernels whose
    rounding the digest records."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):   # a numpy whose show_config has no dicts
        simd = []
    return (f"# numpy {np.__version__} | {platform.system()} {platform.machine()} | "
            f"SIMD {' '.join(simd)}")


def _digest():
    """tools/csv_digest.py's output for the package, in a subprocess: the
    tool imports the package from the given tree by rewriting sys.modules."""
    run = subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return run.stdout.splitlines()


def test_the_outputs_match_the_committed_digest():
    with open(DIGEST) as fh:
        header, *expected = fh.read().splitlines()
    if header != _build():
        pytest.skip(f"the digest was recorded on {header[2:]}; this is {_build()[2:]}, "
                    "whose rounding may differ")
    diff = list(difflib.unified_diff(expected, _digest(), "digest.txt", "this tree",
                                     lineterm="", n=0))
    assert not diff, "outputs moved:\n" + "\n".join(diff[:40])


# each object's claimed order in the step, None for an exact one
ORDERS = {"P1": None, "P0": None, **dict.fromkeys(
    ("G", "Phi1", "PhiZ", "Mg", "Mz", "K1", "K2", "PhiX", "Mx1", "Mx2", "Mig_diag",
     "M0g_diag", "P2", "G1"), 2.0)}
STEPS, REF_STEPS = (100, 200, 400), 3200


def _n4_params():
    """A non-commuting set with n = 4 and d = 3, kept out of the digest's
    fixtures so the digest does not grow."""
    rng = np.random.default_rng(0)
    A = -np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    B = 0.5 * rng.standard_normal((4, 3))
    C = 0.3 * rng.standard_normal((4, 4))
    F = 0.2 * rng.standard_normal((4, 3))
    M = rng.standard_normal((3, 3))
    Gamma = 0.4 * rng.standard_normal((4, 4))
    I, s, zero = np.eye(4), np.full(4, 0.3), np.zeros(4)
    return SystemParams(A=A, B=B, C=C, F=F, D=0.05 * I, Q_I=I, Q=I, Qbar_I=I, Qbar=I,
                        R=M @ M.T + 3.0 * np.eye(3), Gamma=Gamma, Gammabar=Gamma,
                        eta=zero, etabar=zero, s=s, sbar=s, T=2.0)


@pytest.mark.parametrize("fixture", ["p6", "mixed", "n4"])
def test_every_solved_object_has_its_claimed_order(fixture):
    if fixture == "n4":
        params = _n4_params()
    else:
        doc = runpy.run_path(TOOL)["FIXTURES"][fixture]
        params = validate_config(dict(doc, mode="predict")).params
    solved = {}
    for K in STEPS + (REF_STEPS,):
        bundle = RiccatiBundle.solve(params, params.default_grid(K))
        solved[K] = {name: np.asarray(getattr(getattr(bundle, name), "values",
                                              getattr(bundle, name)))
                     for name in ORDERS}
    off = {}
    for name, order in ORDERS.items():
        errors = np.array([np.abs(solved[K][name] - solved[REF_STEPS][name][::REF_STEPS // K])
                           .max() for K in STEPS])
        observed = np.log2(errors[:-1] / errors[1:])
        if (errors.max() > 1e-12 if order is None
                else not np.all(np.abs(observed - order) <= 0.1)):
            off[name] = (order, errors, observed)
    assert not off, f"objects off their claimed order (claim, errors, observed): {off}"


if __name__ == "__main__":
    with open(DIGEST, "w") as fh:
        fh.write("\n".join([_build()] + _digest()) + "\n")
