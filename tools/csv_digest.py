"""Print the sha256 of every CSV the four scenario modes write.

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
reordered product changes its bytes.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

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
    return out


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    src = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(here), "src")
    for line in digests(src):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
