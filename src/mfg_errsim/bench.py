"""Wall-clock benchmarks of the main pipelines.

Measures the Riccati bundle solve, deviation-map construction, N-agent
stepping and realtime re-estimation for a list of (N, steps) sizes.
Reports medians and p95 over repeated runs (first warm-up run discarded)
plus agent-step throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import equilibrium_law, equilibrium_mf
from .deviations import build_maps
from .params import P6_Z0, p6_params
from .population import sample_population, simulate
from .realtime import build_kernels, hold_initial_error_policy, realtime_simulate
from .riccati import RiccatiBundle

DEFAULT_SIZES = [(200, 1000), (200, 2000), (400, 2000), (800, 2000)]


@dataclass
class BenchReport:
    case: str
    N: int
    steps: int
    median_s: float
    p95_s: float
    throughput: float  # agent-steps per second

    def row(self):
        return [self.case, self.N, self.steps, self.median_s, self.p95_s,
                self.throughput]


def _time_repeated(fn, reps):
    fn()  # warm-up, discarded
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples = np.asarray(samples)
    return float(np.median(samples)), float(np.quantile(samples, 0.95))


def bench_suite(sizes=None, seed=0, reps=5):
    """Run the benchmark cases and return a list of BenchReport."""
    if sizes is None:
        sizes = DEFAULT_SIZES
    if reps < 5:
        raise ValueError("need at least 5 repetitions for stable medians")
    params = p6_params()
    reports = []
    for N, steps in sizes:
        grid = params.default_grid(steps)
        med, p95 = _time_repeated(lambda: RiccatiBundle.solve(params, grid), reps)
        reports.append(BenchReport("riccati_bundle", N, steps, med, p95, 0.0))

        bundle = RiccatiBundle.solve(params, grid)
        med, p95 = _time_repeated(lambda: build_maps(bundle), reps)
        reports.append(BenchReport("deviation_maps", N, steps, med, p95, 0.0))

        mf = equilibrium_mf(bundle, P6_Z0)
        law = equilibrium_law(bundle, mf)
        pop = sample_population(
            N, init_mean=P6_Z0, init_cov=0.003 * np.eye(2),
            error_mean=np.zeros(2), error_cov=0.1 * np.eye(2), seed=seed)

        def run_sim():
            simulate(params, pop, law, mf_coupling="empirical", grid=grid, seed=seed)

        med, p95 = _time_repeated(run_sim, reps)
        thr = N * steps / med if med > 0 else float("inf")
        reports.append(BenchReport("population_sim", N, steps, med, p95, thr))

        kernels = build_kernels(bundle)
        errors = np.array([e for _, e in pop])
        policy = hold_initial_error_policy(errors, errors.mean(axis=0))

        def run_realtime():
            realtime_simulate(params, bundle, pop, policy, grid=grid, seed=seed,
                              kernels=kernels)

        med, p95 = _time_repeated(run_realtime, reps)
        thr = N * steps / med if med > 0 else float("inf")
        reports.append(BenchReport("realtime_sim", N, steps, med, p95, thr))
    return reports


def write_report(reports, path):
    with open(path, "w", newline="") as fh:
        fh.write("case,N,steps,median_s,p95_s,throughput\n")
        for r in reports:
            fh.write(
                f"{r.case},{r.N},{r.steps},{r.median_s:.6g},{r.p95_s:.6g},"
                f"{r.throughput:.6g}\n"
            )
