"""Build reference.json, the fine-grid reference behind the det_err metric.

    python3 perfbench/make_reference.py

The check set is two predict-mode scenarios that do not depend on any
workload seed: the P6 fixture, and one perturbed fixture drawn with the
deterministic workload's well-posedness rule from a fixed seed.  Each is run
through run_scenario at 4000, 8000 and 16000 steps.  The integrators
converge at second order, so the reference is the Richardson extrapolation
(4 y(16000) - y(8000)) / 3; the same extrapolation from 4000 and 8000 steps
estimates its own error, which is recorded.  A 16000-step run takes several
seconds per case, which is why the benchmark never recomputes it.
"""

import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from mfg_errsim import __version__  # noqa: E402
from mfg_errsim.params import P6_EBAR_BASE, P6_Z0  # noqa: E402
from workloads import REFERENCE_PATH, perturbed_params, read_csv, run_config  # noqa: E402

CHECK_SEED = 20240915
GRIDS = (4000, 8000, 16000)
FILES = ("mf_predicted.csv", "mf_actual.csv", "deviations.csv")


def check_set():
    rng = np.random.default_rng(CHECK_SEED)
    return [
        {"name": "p6",
         "config": {"mode": "predict", "z0": P6_Z0.tolist(),
                    "E_bar": P6_EBAR_BASE.tolist(), "E_i": [0.2, 0.1]}},
        {"name": "perturbed",
         "config": {"mode": "predict", "params": perturbed_params(rng),
                    "z0": [0.35, 0.45], "E_bar": [-0.12, 0.08],
                    "E_i": [0.15, -0.1]}},
    ]


def outputs(config, steps, outdir):
    run_config(dict(config, grid_steps=steps, output_dir=outdir))
    return {f: read_csv(os.path.join(outdir, f)) for f in FILES}


def main():
    outdir = os.path.join(ROOT, ".perfbench_out", "reference")
    cases, est_err = [], 0.0
    t = time.perf_counter()
    try:
        for case in check_set():
            runs = [outputs(case["config"], k, outdir) for k in GRIDS]
            files = {}
            for f in FILES:
                header = runs[0][f][0]
                y4, y8, y16 = (r[f][1] for r in runs)
                if not (np.array_equal(y4[:, 0], y8[:, 0])
                        and np.array_equal(y8[:, 0], y16[:, 0])):
                    raise SystemExit(f"{f}: output times differ between grids")
                ref = (4.0 * y16 - y8) / 3.0
                coarse = (4.0 * y8 - y4) / 3.0
                ref[:, 0] = y16[:, 0]
                est_err = max(est_err, float(np.max(np.abs(ref[:, 1:] - coarse[:, 1:]))))
                files[f] = {"columns": header, "values": ref.tolist()}
            cases.append(dict(case, files=files))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    doc = {
        "method": "Richardson extrapolation (4 y(16000) - y(8000)) / 3 of "
                  "run_scenario predict outputs",
        "grids": list(GRIDS),
        "estimated_error": est_err,
        "library_version": __version__,
        "cases": cases,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: estimated error {est_err:.3g}, "
          f"{time.perf_counter() - t:.1f} s")


if __name__ == "__main__":
    main()
