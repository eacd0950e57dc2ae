"""Print the sha256 of every CSV the four scenario modes write, and of the
arrays the simulators return when called directly.

Usage:

    python3 tools/csv_digest.py [SRC_DIR]

SRC_DIR is the directory the ``mfg_errsim`` package is imported from
(default: ``src`` next to this script's parent).  Running the script once
against an old checkout's ``src`` and once against the new one, then
diffing the two outputs, checks that a refactor left every output byte
unchanged.

Each of predict, evolve, correct and realtime runs at a small grid on two
parameter sets: the identity-scaled fixture P6, and a fixed n = d = 2 set
with non-commuting A and C and non-scalar B, F and R, so a transposed or
reordered product changes its bytes.  On the same two sets, at the same
grid, it also digests the arrays of direct calls: ``simulate`` with the
shared and the per-agent offset law, empirical and prescribed coupling,
default and zero noise; ``replay_agent``; ``epsilon_nash_gap``; and
``realtime_simulate`` with each of the four estimator policies at default
and zero noise.  These calls keep one signature across refactors, so the
script runs unchanged against an older checkout.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import numpy as np

FIXTURES = {
    "p6": {},
    "mixed": {
        "params": {
            "A": [[-1.0, 0.3], [-0.2, -0.8]],
            "B": [[0.6, 0.1], [-0.2, 0.4]],
            "C": [[0.3, -0.1], [0.25, 0.2]],
            "F": [[0.2, 0.05], [-0.1, 0.3]],
            "R": [[1.2, 0.3], [0.3, 0.8]],
            "Gamma": [[0.5, 0.2], [-0.1, 0.4]],
        },
        "z0": [0.4, -0.2],
        "E_bar": [0.08, -0.12],
        "E_i": [-0.05, 0.15],
    },
}
MODES = {
    "predict": {},
    "evolve": {},
    "correct": {"t0": 0.5},
    "realtime": {"N": 50, "seed": 7},
}
GRID_STEPS = 200
N_AGENTS = 50
SEED = 7


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def array_digests(fixture, fdoc):
    """Digest lines of the direct simulator calls on one parameter set."""
    from mfg_errsim import realtime
    from mfg_errsim.core import epsilon_nash_gap, equilibrium_law, equilibrium_mf
    from mfg_errsim.deviations import build_maps
    from mfg_errsim.params import P6_ERROR_COV, P6_INIT_COV
    from mfg_errsim.population import (
        OffsetFamilyLaw,
        replay_agent,
        sample_population,
        simulate,
    )
    from mfg_errsim.riccati import RiccatiBundle
    from mfg_errsim.scenario import validate_config

    cfg = validate_config(dict(fdoc, mode="predict", grid_steps=GRID_STEPS))
    params, grid = cfg.params, cfg.grid()
    bundle = RiccatiBundle.solve(params, grid)
    maps = build_maps(bundle)
    mf = equilibrium_mf(bundle, cfg.z0)
    shared = equilibrium_law(bundle, mf)
    pop = sample_population(N_AGENTS, init_mean=cfg.z0, init_cov=P6_INIT_COV,
                            error_mean=cfg.E_bar, error_cov=P6_ERROR_COV, seed=SEED)
    errors = np.array([e for _, e in pop])
    laws = {"shared": shared,
            "family": OffsetFamilyLaw(params, bundle.P1, shared.g, maps.Mg, errors)}
    couplings = {"empirical": "empirical", "prescribed": (mf.z, mf.ubar)}
    noises = {"Dnone": None, "D0": 0.0}

    out = []
    for lname, law in laws.items():
        for cname, coupling in couplings.items():
            for dname, D in noises.items():
                res = simulate(params, pop, law, mf_coupling=coupling, grid=grid,
                               seed=SEED, D=D)
                key = f"{fixture}/simulate/{lname}-{cname}-{dname}"
                for name in ("xs", "us", "drifts"):
                    out.append(f"{key}/{name} {_sha(getattr(res, name))}")
                out.append(f"{key}/x_N,u_N {_sha(res.x_N.values, res.u_N.values)}")
                if lname == "shared" and cname == "prescribed":
                    x, u = replay_agent(params, res.traces[3], law, mf.z, mf.ubar,
                                        grid, seed=SEED, D=D)
                    out.append(f"{key}/replay_agent {_sha(x.values, u.values)}")
    for dname, D in noises.items():
        gap = epsilon_nash_gap(params, N_AGENTS, SEED, grid=grid, z0=cfg.z0, D=D)
        out.append(f"{fixture}/epsilon_nash_gap-{dname} {_sha([gap])}")

    kernels = realtime.build_kernels(bundle)
    policies = {
        "hold": realtime.hold_initial_error_policy(errors, cfg.E_bar),
        "decay": realtime.decay_to_truth_policy(errors, cfg.E_bar, rate=1.5),
        "constant": realtime.constant_error_policy(cfg.E_bar),
        "truth": realtime.truth_policy(),
    }
    for pname, policy in policies.items():
        for dname, D in noises.items():
            res = realtime.realtime_simulate(params, bundle, pop, policy, grid=grid,
                                             seed=SEED, D=D, kernels=kernels)
            key = f"{fixture}/realtime_simulate/{pname}-{dname}"
            for name in ("z_A", "z_c", "Ebar", "Ebar1", "predicted_deviation"):
                out.append(f"{key}/{name} {_sha(res[name].values)}")
            report = res["deviation_report"]
            out.append(f"{key}/deviation_report {_sha([report[k] for k in sorted(report)])}")
    return out


def digests(src):
    sys.path.insert(0, os.path.abspath(src))
    from mfg_errsim.scenario import run_scenario, validate_config

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for fixture, fdoc in FIXTURES.items():
            for mode, mdoc in MODES.items():
                outdir = os.path.join(tmp, f"{fixture}-{mode}")
                doc = dict(fdoc, **mdoc, mode=mode, grid_steps=GRID_STEPS,
                           output_dir=outdir)
                run_scenario(validate_config(doc))
                for name in sorted(os.listdir(outdir)):
                    if name.endswith(".csv"):
                        with open(os.path.join(outdir, name), "rb") as fh:
                            digest = hashlib.sha256(fh.read()).hexdigest()
                        out.append(f"{fixture}/{mode}/{name} {digest}")
    for fixture, fdoc in FIXTURES.items():
        out += array_digests(fixture, fdoc)
    return out


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    src = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(here), "src")
    for line in digests(src):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
