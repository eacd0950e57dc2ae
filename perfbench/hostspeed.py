"""Host-speed probe behind the benchmark's speed-adjusted timings.

The measuring machine is a few vCPUs of a shared host whose speed changes
by up to about 1.5x, sometimes within a second, sometimes for stretches as
long as a whole run.  Wall times of identical requests follow it, so raw
figures from two runs of the same code disagree by more than any useful
bound.

The probe is a fixed piece of work of the same character as the library's
(small numpy matrix products driven from a Python loop) that lives in the
benchmark, so no change to the library can change its cost.  The runner
times it in its own thread between consecutive requests and scales each
request's wall time by ``PROBE_REF_S / probe time``, averaging the probes on
either side of the request.  The result reads as seconds on a host on which
the probe takes ``PROBE_REF_S``.  Work that the library left running on
other threads while a probe runs would slow the probe and flatter the
adjusted figures; the runner's thread caps keep the library to one compute
thread.
"""

import time

import numpy as np

# Probe time on an unloaded vCPU of the machine the baseline was measured on
# (Intel Xeon, 2 vCPUs); see README.md.
PROBE_REF_S = 1.6e-3

_REPEATS = 3
_A = np.random.default_rng(0).standard_normal((100, 100)) / 10.0


def _kernel():
    acc = 0.0
    for _ in range(20):
        acc += float((_A @ _A)[0, 0])
        for j in range(1000):
            acc += j * 0.5
    return acc


def probe():
    """Seconds the fixed kernel takes now: the best of a few back-to-back runs.

    Taking the best drops the odd interrupt or preemption, which lasts far
    shorter than the host's slow stretches.
    """
    best = float("inf")
    for _ in range(_REPEATS):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


def factor(before, after):
    """Scale for a wall time measured between probes `before` and `after`."""
    return PROBE_REF_S / (0.5 * (before + after))
