"""Run one benchmark workload against the library in ``src/`` and report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deterministic --seed 1 --seconds 20 --trace 0

Workloads: ``deterministic``, ``montecarlo``, ``realtime`` (see workloads.py).

``--trace 0`` is the timed run: set-up (repeated, median reported), one
discarded warm-up request, then request cycles until ``--seconds`` have
passed and every kind of request has run, then the fixed accuracy check
behind ``det_err``.  It prints every
end-to-end metric.  The timings among them are speed-adjusted: a fixed probe
(hostspeed.py) is timed between requests, and each wall time is scaled to a
host of reference speed by the probe times on either side of it.  The raw
wall-clock figures are printed beside them.

``--trace 1`` is the traced run: the same requests are run for about half of
``--seconds`` untraced, then once more with the tracing shim installed.  It
prints every per-layer metric, as a value per request cycle, plus the
tracing overhead, and writes the spans to ``.perfbench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 whenever that line is printed.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# One compute thread in total: BLAS pools off, evolve-mode pool at one worker.
# Both must be set before numpy is imported.
THREAD_CAPS = {
    "MFG_ERRSIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

from hostspeed import factor, probe  # noqa: E402

SETUP_REPEATS = 5
# Percentile behind latency_tail_s, taken per request kind.  At the committed
# run length no kind has ten samples beyond any percentile above the median;
# the report prints the counts.
TAIL_PERCENTILE = 75
# Never start a new cycle after this many seconds, whatever --seconds says.
HARD_STOP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "agent_steps_per_s": "1/s",
    "det_err": "abs",
    "peak_rss_mb": "MiB",
}

# per-layer metrics: a name ending in _s is the self time of the span of
# that name without the suffix; any other name is a counter
PER_LAYER_UNITS = {
    "ode.rk4_affine_calls": "count",
    "ode.rk4_affine_steps": "count",
    "ode.rk4_affine_s": "s",
    "ode.rk4_nonlinear_steps": "count",
    "ode.rk4_nonlinear_s": "s",
    "ode.fundamental_solution_s": "s",
    "ode.invert_path_s": "s",
    "riccati.bundle_calls": "count",
    "riccati.bundle_s": "s",
    "riccati.P1_s": "s",
    "riccati.P0_s": "s",
    "riccati.P2_s": "s",
    "riccati.G_s": "s",
    "riccati.G1_s": "s",
    "riccati.tracking_offset_calls": "count",
    "riccati.tracking_offset_s": "s",
    "core.equilibrium_mf_calls": "count",
    "core.equilibrium_mf_s": "s",
    "deviations.build_maps_calls": "count",
    "deviations.build_maps_s": "s",
    "limiting.solve_limiting_calls": "count",
    "limiting.solve_limiting_s": "s",
    "correction.build_problem_s": "s",
    "correction.recover_s": "s",
    "correction.modified_game_s": "s",
    "params.Rinv_evals": "count",
    "grid.paths_created": "count",
    "population.sample_s": "s",
    "population.simulate_s": "s",
    "population.agent_steps": "count",
    "population.result_mb": "MiB",
    "realtime.build_kernels_s": "s",
    "realtime.simulate_s": "s",
    "realtime.policy_calls": "count",
    "scenario.validate_s": "s",
    "scenario.run_s": "s",
    "scenario.csv_bytes": "B",
    "bench.request_s": "s",
    "trace.overhead_frac": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("deterministic", "montecarlo", "realtime"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_library():
    """Import mfg_errsim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import mfg_errsim

    if not os.path.abspath(mfg_errsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: mfg_errsim imported from {mfg_errsim.__file__}")


class Window:
    """Outcome of running cycles of requests in a closed loop."""

    def __init__(self):
        # [cycle, kind, latency, probe before, probe after, agent steps, ok]
        self.records = []
        self.agent_steps = 0
        self.csv_bytes = 0
        self.failed = 0
        self.cycles = 0
        self.elapsed = 0.0
        self.params_keys = []

    @property
    def attempted(self):
        return len(self.records)

    @property
    def ok_latencies(self):
        return [r[2] for r in self.records if r[6]]

    @property
    def adjusted(self):
        """Speed-adjusted wall times of the requests that passed their check."""
        return [r[2] * factor(r[3], r[4]) for r in self.records if r[6]]

    @property
    def requests_per_s(self):
        """Passed requests per speed-adjusted second spent in the library."""
        return len(self.adjusted) / sum(self.adjusted)

    def by_kind(self):
        """{kind: [(adjusted time, agent steps), ...]} over passed requests."""
        kinds = {}
        for _, kind, latency, before, after, steps, ok in self.records:
            if ok:
                kinds.setdefault(kind, []).append((latency * factor(before, after), steps))
        return kinds


def run_request(wl, req, win, tracer=None, request_id=None, before=None):
    """Execute one request, time it, check its outputs and record the result.

    `before` is the probe time taken just before the request; the probe is
    timed again after it, and that time is returned.
    """
    from workloads import CheckFailed

    if tracer is not None:
        tracer.request = request_id
        span = tracer.open("bench.request")
    t = time.perf_counter()
    out = None
    try:
        try:
            out = wl.execute(req)
        finally:
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.close(span)
        wl.check(req, out)
    except CheckFailed as e:
        print(f"request failed check: {e}", file=sys.stderr)
        ok = False
    except Exception:  # a request boundary: record it, count it, keep going
        traceback.print_exc(file=sys.stderr)
        ok = False
    else:
        ok = True
    steps = 0
    if ok:
        steps = wl.agent_steps(req, out)
        win.agent_steps += steps
        if tracer is not None:
            win.csv_bytes += wl.csv_bytes(req, out)
    else:
        win.failed += 1
    after = probe()
    win.records.append([win.cycles, str(req.kind), dt, before or after, after, steps, ok])
    return after


def closed_loop(wl, seconds=None, cycles=None, tracer=None, whole_cycles=True):
    """Run cycles of requests until `seconds` have passed or `cycles` are done.

    With `whole_cycles` false the loop may stop inside a cycle, as soon as
    `seconds` have passed and every kind of request has run once.
    """
    win = Window()
    t0 = time.perf_counter()
    before = probe()
    while True:
        for j, req in enumerate(wl.cycle(win.cycles)):
            before = run_request(wl, req, win, tracer, f"c{win.cycles}r{j}", before)
            if hasattr(wl, "params_key"):
                win.params_keys.append(wl.params_key(req))
            win.elapsed = time.perf_counter() - t0
            if (not whole_cycles and win.cycles >= 1 and seconds is not None
                    and win.elapsed >= seconds):
                return win
        win.cycles += 1
        if cycles is not None and win.cycles >= cycles:
            break
        if seconds is not None and win.elapsed >= seconds:
            break
        if win.elapsed >= HARD_STOP_S:
            break
    return win


def _nearest_rank(values, pct):
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def _repeat_share(keys):
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def timed_run(wl, args, t_import):
    from workloads import DET_ERR_MAX, det_err

    # each set-up is scaled by the probes on either side of it, the import by
    # the first probe, which follows it directly
    probes = [probe()]
    setups, adjusted_setups = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
        probes.append(probe())
        adjusted_setups.append(setups[-1] * factor(probes[-2], probes[-1]))
    setup_s = t_import * factor(probes[0], probes[0]) + statistics.median(adjusted_setups)

    warm = Window()
    run_request(wl, wl.warmup(), warm)
    win = closed_loop(wl, seconds=args.seconds, whole_cycles=False)

    correct = warm.failed == 0 and win.failed == 0
    try:
        err = det_err(wl.reference, wl.outdir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        err, correct = float("nan"), False
    if not err <= DET_ERR_MAX:
        correct = False
    if not win.adjusted:
        raise SystemExit("error: no request passed its check")
    setup_raw = t_import + statistics.median(setups)

    # Every figure is taken per kind of request and then combined with the
    # kinds weighted equally, as in one cycle, so a window that ends inside a
    # cycle does not shift the mix.
    pct = TAIL_PERCENTILE
    kinds = win.by_kind()
    times = {k: [a for a, _ in v] for k, v in kinds.items()}
    cycle_s = sum(statistics.mean(v) for v in times.values())
    cycle_steps = sum(statistics.mean(s for _, s in v) for v in kinds.values())
    beyond = {k: len(v) - math.ceil(pct / 100.0 * len(v)) for k, v in times.items()}
    ok_raw = win.ok_latencies
    metrics = {
        "setup_s": setup_s,
        "requests_per_s": len(times) / cycle_s,
        "latency_p50_s": statistics.mean(statistics.median(v) for v in times.values()),
        "latency_tail_s": statistics.mean(_nearest_rank(v, pct) for v in times.values()),
        "agent_steps_per_s": cycle_steps / cycle_s,
        "det_err": err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"raw {setup_raw:.3f} s: import {t_import:.3f} s + median of "
                   f"{SETUP_REPEATS} set-ups " + ", ".join(f"{s:.3f}" for s in setups),
        "requests_per_s": f"{len(ok_raw)} requests of {len(times)} kinds, "
                          f"{len(ok_raw) / len(times):.1f} per kind; raw "
                          f"{len(ok_raw) / win.elapsed:.4g} in {win.elapsed:.2f} s of window",
        "latency_p50_s": "mean over kinds of the per-kind median; "
                         f"raw median {statistics.median(ok_raw):.4g} s",
        "latency_tail_s": f"mean over kinds of the per-kind p{pct}; "
                          f"{min(beyond.values())}-{max(beyond.values())} beyond it per kind",
        "agent_steps_per_s": f"{win.agent_steps} agent-steps; raw "
                             f"{win.agent_steps / sum(ok_raw):.4g}",
        "det_err": "max abs error vs fine-grid reference, default config",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"host speed: adjustment {sum(win.adjusted) / sum(ok_raw):.3f} over the "
          f"window, {setup_s / setup_raw:.3f} over set-up")
    for name, value in metrics.items():
        print(f"{name:20s} {value:.6g} {END_TO_END_UNITS[name]}  ({notes[name]})")
    print(f"{'failed_frac':20s} {win.failed / max(win.attempted, 1):.6g} ratio  "
          f"({win.failed} of {win.attempted})")
    if win.params_keys:
        print(f"{'params_repeat_frac':20s} {_repeat_share(win.params_keys):.4g} ratio  "
              "(requests whose params equal an earlier request's)")
    return correct, win, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in metrics.items()}


def traced_run(wl, args):
    from tracing import Tracer

    tracer = Tracer()
    tracer.request = "setup"
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    warm = Window()
    run_request(wl, wl.warmup(), warm)

    plain = closed_loop(wl, seconds=args.seconds / 2.0)
    tracer.install()
    try:
        traced = closed_loop(wl, cycles=plain.cycles, tracer=tracer)
    finally:
        tracer.uninstall()

    requests = {f"c{c}r{j}" for c in range(traced.cycles)
                for j in range(len(wl.cycle_kinds))}
    self_s, gap = tracer.summarize(requests)
    counts = tracer.totals(requests)
    per_cycle = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("_s"):
            per_cycle[name] = self_s.get(name[:-2], 0.0)
        else:
            per_cycle[name] = counts.get(name, 0.0)
    per_cycle["scenario.csv_bytes"] = traced.csv_bytes
    per_cycle = {k: v / traced.cycles for k, v in per_cycle.items()}
    overhead = 1.0 - traced.requests_per_s / plain.requests_per_s
    per_cycle["trace.overhead_frac"] = overhead

    span_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_path)

    for name, value in per_cycle.items():
        print(f"{name:32s} {value:.6g} {PER_LAYER_UNITS[name]}")
    print(f"traced {traced.cycles} cycles ({traced.attempted} requests): "
          f"{traced.requests_per_s:.4g} req/s traced vs {plain.requests_per_s:.4g} "
          f"untraced, speed-adjusted; worst per-request accounting gap {gap:.2e}; "
          f"spans in {span_path}")
    correct = warm.failed == 0 and plain.failed == 0 and traced.failed == 0 \
        and gap <= 1e-9
    win = Window()
    win.records = plain.records + traced.records
    win.failed = plain.failed + traced.failed
    return correct, win, {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                          for k, v in per_cycle.items()}


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "mfg_errsim", "__init__.py")):
        raise SystemExit(f"error: {SRC}/mfg_errsim not found; run from a checkout")
    _import_library()
    from workloads import WORKLOADS

    t_import = time.perf_counter() - _T_START

    outdir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-pid{os.getpid()}")
    os.makedirs(outdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, outdir)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}; thread caps "
              + " ".join(f"{k}={v}" for k, v in THREAD_CAPS.items()))
        if args.trace:
            correct, win, metrics = traced_run(wl, args)
        else:
            correct, win, metrics = timed_run(wl, args, t_import)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    with open(os.path.join(OUT_ROOT, f"requests-{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json"), "w") as fh:
        json.dump({"columns": ["cycle", "kind", "latency_s", "probe_before_s",
                               "probe_after_s", "agent_steps", "ok"],
                   "records": win.records}, fh)
    print(json.dumps({"correct": bool(correct), "attempted": win.attempted,
                      "failed": win.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
