"""The benchmark's tracing shim and workloads call the library by name.

perfbench/tracing.py names the functions it spans (SPANNED) and the
estimator-policy factories it counts (POLICY_FACTORIES), and
perfbench/workloads.py calls the library in the call forms of its
requests.  A library change that renames or deletes one of them breaks the
benchmark, so these tests read both files, without importing them as
modules or writing anything beside them, check every name the shim wraps
against the package, and run the first cycle of every workload, its first
request once more under the installed shim.
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

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    """perfbench/<name>.py run as a fresh module, leaving no bytecode."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    mod = types.ModuleType(f"perfbench_{name}")
    mod.__file__ = path
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), mod.__dict__)
    return mod


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


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


@pytest.mark.parametrize("name", ["deterministic", "montecarlo", "realtime"])
def test_every_request_of_a_workloads_first_cycle_passes_its_check(tmp_path, name):
    workload = _load("workloads").WORKLOADS[name](seed=7, outdir=str(tmp_path))
    workload.setup()
    for req in workload.cycle(0):
        workload.check(req, workload.execute(req))


@pytest.mark.parametrize("name", ["deterministic", "montecarlo", "realtime"])
def test_a_workloads_first_request_passes_its_check_under_the_tracer(tmp_path, tracing, name):
    # the shim's wrappers read what a traced run reads of each result: a
    # simulate result's traces, each with its drift (_result_nbytes)
    workload = _load("workloads").WORKLOADS[name](seed=7, outdir=str(tmp_path))
    workload.setup()
    req = workload.cycle(0)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.check(req, workload.execute(req))
    finally:
        tracer.uninstall()
    assert tracer.spans
