"""The benchmark's tracing shim wraps library functions by name.

perfbench/tracing.py names the functions it spans (SPANNED) and the
estimator-policy factories it counts (POLICY_FACTORIES).  A library change
that renames or deletes one of them breaks the traced benchmark run, so
this test reads the shim, without importing it as a module or writing
anything beside it, and checks every name against the package.
"""

import importlib
import os
import sys
import types

import pytest

from mfg_errsim import cli, scenario  # noqa: F401  (every module loaded)
from mfg_errsim.grid import MatrixPath, VectorPath
from mfg_errsim.params import SystemParams
from mfg_errsim.riccati import RiccatiBundle

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    mod = types.ModuleType("perfbench_tracing")
    mod.__file__ = TRACING
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), mod.__dict__)
    return mod


def test_every_spanned_name_resolves(tracing):
    for module, attr, _ in tracing.SPANNED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    realtime = importlib.import_module("mfg_errsim.realtime")
    for attr in tracing.POLICY_FACTORIES:
        assert callable(getattr(realtime, attr)), attr


def _bindings():
    """Every module-level value of the package, and the class attributes
    the shim replaces."""
    out = {(name, attr): value
           for name, mod in sys.modules.items()
           if name == "mfg_errsim" or name.startswith("mfg_errsim.")
           for attr, value in vars(mod).items()}
    for owner, attr in ((RiccatiBundle, "solve"), (SystemParams, "Rinv"),
                        (MatrixPath, "__post_init__"), (VectorPath, "__post_init__")):
        out[(owner.__name__, attr)] = vars(owner)[attr]
    return out


def test_install_and_uninstall_round_trip(tracing):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        wrapped = {key for key in before if during[key] is not before[key]}
        for module, attr, _ in tracing.SPANNED:
            assert (module, attr) in wrapped, (module, attr)
        assert ("mfg_errsim.realtime", "truth_policy") in wrapped
        assert ("RiccatiBundle", "solve") in wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
