"""Run every benchmark workload once and write the results to a JSON file.

Usage, from anywhere:

    python3 tools/bench_record.py BENCH_7.json [--root CHECKOUT]

For each workload of ``perfbench/run.py`` (deterministic, montecarlo,
realtime), in that order, it runs

    python3 perfbench/run.py --workload W --seed 7 --seconds 30 --trace 0

in the checkout ROOT (default: the checkout this script lives in) and keeps
the run's final JSON line.  The output file holds those lines per workload,
the checkout's commit (and whether its ``src/`` differs from that commit),
the Python and numpy versions, the processor count and the thread caps the
harness printed.  One such file per change, committed next to the code,
makes the benchmark trajectory of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

WORKLOADS = ("deterministic", "montecarlo", "realtime")
SEED = 7
SECONDS = 30


def _git(root, *args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_workload(root, workload):
    """(final JSON object, thread caps) of one timed run of one workload."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    caps = {}
    for line in lines:
        if "thread caps" in line:
            caps = dict(kv.split("=", 1) for kv in line.split("thread caps", 1)[1].split())
    return json.loads(lines[-1]), caps


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write, e.g. BENCH_7.json")
    ap.add_argument("--root", default=here, help="checkout to benchmark")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)

    results, caps = {}, {}
    for workload in WORKLOADS:
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        results[workload], caps = run_workload(root, workload)
    try:
        commit = _git(root, "rev-parse", "HEAD")
        src_dirty = bool(_git(root, "status", "--porcelain", "--", "src"))
    except (OSError, subprocess.CalledProcessError):
        commit, src_dirty = None, None
    record = {
        "command": f"perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} --trace 0",
        "commit": commit,
        "src_dirty": src_dirty,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
        "thread_caps": caps,
        "workloads": results,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
