"""Print the sha256 of every file the four scenario modes write, and of the
arrays of direct library calls; or compare those outputs between two trees.

Usage:

    python3 tools/csv_digest.py [SRC_DIR]
    python3 tools/csv_digest.py [SRC_DIR] --against OLD_SRC

SRC_DIR is the directory the ``mfg_errsim`` package is imported from
(default: ``src`` next to this script's parent).  Running the script once
against an old checkout's ``src`` and once against the new one, then
diffing the two outputs, checks that a refactor left every output byte
unchanged.  With ``--against OLD_SRC`` it imports both trees in turn and
prints, for every CSV and every direct-call array, the max abs difference
and the max relative difference (max abs difference over the largest
magnitude in the old output), then the same two figures per group
(fixture and mode or call) and overall; for each mode's manifest.json and
plot.gp it prints whether the bytes are the same or differ.  That is the check for a change
that moves round-off bits on purpose, which sha256 equality cannot make.

Each of predict, evolve, correct and realtime runs at a small grid on two
parameter sets: the identity-scaled fixture P6, and a fixed n = d = 2 set
with non-commuting A and C and non-scalar B, F and R, so a transposed or
reordered product changes its bytes.  On the same two sets, at the same
grid, it also takes the arrays of direct calls: the Riccati bundle, the
deviation maps, one limiting run, evolve mode's five-pair
``solve_limiting_batch``, ``equilibrium_mf`` started at node K // 4 and
at node K - 10 (a run whose scan starts inside the grid), correct mode's
stacked system (``stacked_K``, ``stacked_Ob1``) at t0 = 0.5, the
post-correction offset map, the realtime kernels and the realtime maps
anchored at t0 = 0.5; ``sample_population`` with non-diagonal covariances
and a seed past 2**32; ``simulate`` with the shared and the per-agent
offset law, empirical and prescribed coupling, default and zero noise,
with agent 3's trace read before the paths (which draws the same noise
blocks as the paths and takes its column); ``PopulationResult.replay``
of agent 3; ``epsilon_nash_gap``; and ``realtime_simulate`` with each of
the four estimator policies at default and zero noise.  The realtime
kernels are Mig_diag and M0g_diag.  ``--against`` runs the script against
an older checkout that has these calls and kernel fields; for one that has
not (one with ``replay_agent``, kernels that keep Phi1_inv and V, or a
``residual_path`` that takes params and P1), run each tree's own script
and compare the two digest listings.  Against a checkout that draws its
numbers otherwise, the outputs differ by a draw, not by rounding: one that
seeds a stream per agent samples other populations, so
``sample_population`` and every ``simulate`` and ``realtime_simulate``
output on the sampled population differ, zero noise included; one that sums
every agent's stream instead of drawing the node sums from the run's own
stream differs in the noisy ``simulate``, trace, replay and
``epsilon_nash_gap`` outputs, and its zero-noise outputs are comparable.

Each mode also runs a second time in the same process, into another
directory, and a last line per fixture and mode reads ``rerun same`` when
the second run wrote the same bytes as the first, ``rerun differs``
otherwise.  A package that keeps solves across runs answers the second run
from them, so this checks its kept solves against fresh ones.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from collections import defaultdict

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
# non-diagonal covariances, which the P6 ones are not, and a seed of two
# entropy words, for the sample_population group
SAMPLE_COVS = ([[0.3, 0.12], [0.12, 0.2]], [[0.05, -0.02], [-0.02, 0.04]])
SAMPLE_SEED = 2**32 + 7


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def array_outputs(fixture, fdoc):
    """(name, arrays) of the direct library calls on one parameter set."""
    from mfg_errsim import realtime
    from mfg_errsim.core import epsilon_nash_gap, equilibrium_law, equilibrium_mf
    from mfg_errsim.correction import build_correction_problem, modified_offset_map, residual_path
    from mfg_errsim.deviations import build_maps
    from mfg_errsim.limiting import solve_limiting, solve_limiting_batch
    from mfg_errsim.params import P6_ERROR_COV, P6_INIT_COV
    from mfg_errsim.population import OffsetFamilyLaw, sample_population, simulate
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
    sampled = sample_population(500, init_mean=cfg.z0, init_cov=SAMPLE_COVS[0],
                                error_mean=cfg.E_bar, error_cov=SAMPLE_COVS[1],
                                seed=SAMPLE_SEED)
    laws = {"shared": shared,
            "family": OffsetFamilyLaw(params, bundle.P1, shared.g, maps.Mg, errors)}
    couplings = {"empirical": "empirical", "prescribed": (mf.z, mf.ubar)}
    noises = {"Dnone": None, "D0": 0.0}

    out = [(f"{fixture}/bundle/{name}", [getattr(bundle, name).values])
           for name in ("P0", "P1", "P2", "G", "G1")]
    out.append((f"{fixture}/sample_population/x0,E_i", [np.array(sampled)]))
    out += [(f"{fixture}/maps/{name}", [getattr(maps, name).values])
            for name in ("Phi1", "PhiZ", "PhiX", "Mg", "Mz", "Mx1", "Mx2")]
    E_i = cfg.E_bar if cfg.E_i is None else cfg.E_i
    run = solve_limiting(bundle, cfg.z0, E_i, cfg.E_bar)
    out += [(f"{fixture}/limiting/{name}", [getattr(run, name).values])
            for name in ("g_i", "g_bar", "z_A", "ubar_A", "x_i", "u_i")]
    ks = validate_config(dict(fdoc, mode="evolve", grid_steps=GRID_STEPS)).k_sweep
    batch = solve_limiting_batch(bundle, cfg.z0,
                                 [(k * cfg.E_bar, k * cfg.E_bar) for k in ks + [0.0]])
    out += [(f"{fixture}/limiting_batch/{name}", [getattr(r, name).values for r in batch])
            for name in ("g_i", "g_bar", "z_A", "ubar_A")]
    out.append((f"{fixture}/limiting_batch/mf_i", [r.mf_i.z.values for r in batch]))
    mf_k0 = equilibrium_mf(bundle, cfg.z0, GRID_STEPS // 4)
    out.append((f"{fixture}/equilibrium_mf_k0/z,ubar", [mf_k0.z.values, mf_k0.ubar.values]))
    mf_late = equilibrium_mf(bundle, cfg.z0, GRID_STEPS - 10)
    out.append((f"{fixture}/equilibrium_mf_late/z,ubar",
                [mf_late.z.values, mf_late.ubar.values]))
    t0 = MODES["correct"]["t0"]
    Ob = run.observable()
    Ob1 = residual_path(Ob, run.mf_i.z, run.g_i, bundle)
    problem = build_correction_problem(maps, Ob1, t0, run.mf_i.z.at(t0))
    out += [(f"{fixture}/correction/{name}", [getattr(problem, name)])
            for name in ("stacked_K", "stacked_Ob1")]
    out.append((f"{fixture}/correction/modified_offset_map",
                [modified_offset_map(maps, 0.5).values]))
    for lname, law in laws.items():
        for cname, coupling in couplings.items():
            for dname, D in noises.items():
                res = simulate(params, pop, law, mf_coupling=coupling, grid=grid,
                               seed=SEED, D=D)
                key = f"{fixture}/simulate/{lname}-{cname}-{dname}"
                # agent 3's trace read before the paths are built
                tr = res.trace(3)
                out.append((f"{fixture}/simulate_trace/{lname}-{cname}-{dname}",
                            [tr.x.values, tr.u.values]))
                for name in ("xs", "us", "drifts"):
                    out.append((f"{key}/{name}", [getattr(res, name)]))
                out.append((f"{key}/x_N,u_N", [res.x_N.values, res.u_N.values]))
                if lname == "shared" and cname == "prescribed":
                    x, u = res.replay(3, law, mf.z, mf.ubar)
                    out.append((f"{key}/replay", [x.values, u.values]))
    for dname, D in noises.items():
        gap = epsilon_nash_gap(params, N_AGENTS, SEED, grid=grid, z0=cfg.z0, D=D)
        out.append((f"{fixture}/epsilon_nash_gap-{dname}", [[gap]]))

    kernels = realtime.build_kernels(bundle)
    out += [(f"{fixture}/kernels/{name}", [np.asarray(getattr(kernels, name))])
            for name in ("Mig_diag", "M0g_diag")]
    rt = realtime.build_realtime_maps(kernels, 0.5)
    out += [(f"{fixture}/realtime_maps/{name}", [getattr(rt, name).values])
            for name in ("Miz", "M0z", "Mig", "M0g")]
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
                out.append((f"{key}/{name}", [res[name].values]))
            report = res["deviation_report"]
            out.append((f"{key}/deviation_report", [[report[k] for k in sorted(report)]]))
    return out


def outputs(src):
    """Every output of the package imported from src, as (name, payload)
    pairs: the bytes of each file a mode writes, the list of arrays of each
    direct call; and the rerun line of each mode."""
    for name in [m for m in sys.modules if m.split(".")[0] == "mfg_errsim"]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        return _outputs()
    finally:
        sys.path.remove(os.path.abspath(src))


def _outputs():
    from mfg_errsim.scenario import run_scenario, validate_config

    out, reruns = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for fixture, fdoc in FIXTURES.items():
            for mode, mdoc in MODES.items():
                files = []
                for run in ("", "-rerun"):
                    outdir = os.path.join(tmp, f"{fixture}-{mode}{run}")
                    doc = dict(fdoc, **mdoc, mode=mode, grid_steps=GRID_STEPS,
                               output_dir=outdir)
                    run_scenario(validate_config(doc))
                    files.append([])
                    for name in sorted(os.listdir(outdir)):
                        with open(os.path.join(outdir, name), "rb") as fh:
                            files[-1].append((f"{fixture}/{mode}/{name}", fh.read()))
                out += files[0]
                same = "same" if files[0] == files[1] else "differs"
                reruns.append(f"{fixture}/{mode} rerun {same}")
    for fixture, fdoc in FIXTURES.items():
        out += array_outputs(fixture, fdoc)
    return out, reruns


def digest(payload):
    if isinstance(payload, bytes):
        return hashlib.sha256(payload).hexdigest()
    return _sha(*payload)


def _values(payload):
    """Flat float values of one output (a CSV's numbers below its header)."""
    if isinstance(payload, bytes):
        lines = payload.decode().splitlines()[1:]
        return np.array([float(v) for line in lines for v in line.split(",")])
    return np.concatenate([np.ravel(np.asarray(a, dtype=float)) for a in payload])


def compare(new, old):
    """Lines of max abs / max relative differences of the outputs new vs old."""
    old = dict(old)
    lines, groups = ["# output max_abs max_rel"], defaultdict(lambda: [0.0, 0.0])
    for name, payload in new:
        if name not in old:
            lines.append(f"{name} only in the new tree")
            continue
        if isinstance(payload, bytes) and not name.endswith(".csv"):
            lines.append(f"{name} {'same' if payload == old.pop(name) else 'differs'}")
            continue
        a, b = _values(payload), _values(old.pop(name))
        if a.shape != b.shape:
            lines.append(f"{name} has {a.size} values, {b.size} in the old tree")
            continue
        diff = float(np.max(np.abs(a - b), initial=0.0))
        scale = float(np.max(np.abs(b), initial=0.0))
        rel = diff / scale if scale > 0 else (0.0 if diff == 0 else np.inf)
        lines.append(f"{name} {diff:.3g} {rel:.3g}")
        group = groups["/".join(name.split("/")[:2])]
        group[:] = max(group[0], diff), max(group[1], rel)
    lines += [f"{name} only in the old tree" for name in old]
    groups["overall"] = np.max(np.reshape(list(groups.values()), (-1, 2)), axis=0, initial=0.0)
    lines.append("# group max_abs max_rel")
    lines += [f"{key} {d:.3g} {r:.3g}" for key, (d, r) in groups.items()]
    return lines


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=os.path.join(os.path.dirname(here), "src"))
    ap.add_argument("--against", metavar="OLD_SRC",
                    help="print differences to the outputs of this tree instead of digests")
    args = ap.parse_args(argv[1:])
    new, reruns = outputs(args.src)
    if args.against is None:
        lines = [f"{name} {digest(payload)}" for name, payload in new]
    else:
        lines = compare(new, outputs(args.against)[0])
    for line in lines + reruns:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
