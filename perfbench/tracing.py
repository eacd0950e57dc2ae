"""Tracing shim for the traced benchmark run.

The shim wraps the library's public functions from outside the package and
records one span per call (name, start, end, parent span, request id) plus a
few counters.  Nothing under ``src/`` is edited: ``install`` swaps module
attributes and ``uninstall`` puts the originals back.

Modules bind names at import time (``from .riccati import
solve_tracking_offset``), so wrapping only the defining module would miss
most calls.  ``install`` therefore replaces every module-level binding of a
wrapped object in every loaded ``mfg_errsim`` module.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of all spans of one request add up to the
wall time of the request's root span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name) of every wrapped public function
SPANNED = (
    ("mfg_errsim.ode", "rk4_affine", "ode.rk4_affine"),
    ("mfg_errsim.ode", "rk4_nonlinear", "ode.rk4_nonlinear"),
    ("mfg_errsim.ode", "fundamental_solution", "ode.fundamental_solution"),
    ("mfg_errsim.ode", "invert_path", "ode.invert_path"),
    ("mfg_errsim.riccati", "solve_P1", "riccati.P1"),
    ("mfg_errsim.riccati", "solve_P0", "riccati.P0"),
    ("mfg_errsim.riccati", "solve_P2", "riccati.P2"),
    ("mfg_errsim.riccati", "solve_G", "riccati.G"),
    ("mfg_errsim.riccati", "solve_G1", "riccati.G1"),
    ("mfg_errsim.riccati", "solve_tracking_offset", "riccati.tracking_offset"),
    ("mfg_errsim.core", "equilibrium_mf", "core.equilibrium_mf"),
    ("mfg_errsim.deviations", "build_maps", "deviations.build_maps"),
    ("mfg_errsim.limiting", "solve_limiting", "limiting.solve_limiting"),
    ("mfg_errsim.correction", "build_correction_problem", "correction.build_problem"),
    ("mfg_errsim.correction", "recover_errors", "correction.recover"),
    ("mfg_errsim.correction", "modified_game", "correction.modified_game"),
    ("mfg_errsim.population", "sample_population", "population.sample"),
    ("mfg_errsim.population", "simulate", "population.simulate"),
    ("mfg_errsim.realtime", "build_kernels", "realtime.build_kernels"),
    ("mfg_errsim.realtime", "realtime_simulate", "realtime.simulate"),
    ("mfg_errsim.scenario", "validate_config", "scenario.validate"),
    ("mfg_errsim.scenario", "run_scenario", "scenario.run"),
)

# estimator-policy factories; every policy they return is call-counted
POLICY_FACTORIES = (
    "truth_policy",
    "hold_initial_error_policy",
    "decay_to_truth_policy",
    "constant_error_policy",
)

_MIB = float(1 << 20)


def _grid_arg(args, kwargs, pos):
    return args[pos] if len(args) > pos else kwargs["grid"]


def _result_nbytes(res):
    """Bytes of the arrays a PopulationResult hands back (computed)."""
    total = res.x_N.values.nbytes + res.u_N.values.nbytes
    for tr in res.traces:
        total += tr.x.values.nbytes + tr.u.values.nbytes + tr.drift.values.nbytes
    return total


class Tracer:
    """In-memory span and counter store; written out once the run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = defaultdict(float)  # (request id, counter) -> value
        self.request = None
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._restore = []
        self._policy_counters = []

    # -- spans and counters -------------------------------------------------

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread (the evolve-mode pool) nests under whatever the
            # main thread is waiting in
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.request])
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name, value=1):
        with self._lock:
            self.counts[(self.request, name)] += value

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.add(name + "_calls")
            if name == "ode.rk4_affine":
                tracer.add("ode.rk4_affine_steps", _grid_arg(args, kwargs, 3).steps)
            elif name == "ode.rk4_nonlinear":
                tracer.add("ode.rk4_nonlinear_steps", _grid_arg(args, kwargs, 2).steps)
            elif name == "population.simulate":
                tracer.add("population.agent_steps",
                           len(result.traces) * (len(result.x_N) - 1))
                tracer.add("population.result_mb", _result_nbytes(result) / _MIB)
            return result

        return wrapper

    def _counted_policy(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            policy = factory(*args, **kwargs)
            # a policy runs millions of times per request: count with an
            # itertools counter, whose next() is atomic, instead of the lock
            counter = itertools.count()
            tracer._policy_counters.append((tracer.request, counter))
            tick = counter.__next__

            def counted(agent_id, k, t):
                tick()
                return policy(agent_id, k, t)

            return counted

        return make

    def _counted(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function named above, wherever it is bound."""
        from mfg_errsim.grid import MatrixPath, VectorPath
        from mfg_errsim.params import SystemParams
        from mfg_errsim.riccati import RiccatiBundle

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mfg_errsim"
                                         or name.startswith("mfg_errsim."))]
        replace = {}
        for mod_name, attr, span in SPANNED:
            fn = getattr(sys.modules[mod_name], attr)
            replace[id(fn)] = (fn, self._spanned(fn, span))
        realtime = sys.modules["mfg_errsim.realtime"]
        for attr in POLICY_FACTORIES:
            fn = getattr(realtime, attr)
            replace[id(fn)] = (fn, self._counted_policy(fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        solve = RiccatiBundle.__dict__["solve"].__func__
        self._set(RiccatiBundle, "solve",
                  classmethod(self._spanned(solve, "riccati.bundle")))
        rinv = SystemParams.__dict__["Rinv"].fget
        self._set(SystemParams, "Rinv",
                  property(self._counted(rinv, "params.Rinv_evals")))
        for cls in (MatrixPath, VectorPath):
            self._set(cls, "__post_init__",
                      self._counted(cls.__dict__["__post_init__"],
                                    "grid.paths_created"))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def totals(self, requests):
        """Counter sums over the given request ids.

        Reads, and so consumes, the policy call counters: call it once.
        """
        out = defaultdict(float)
        for (req, name), value in self.counts.items():
            if req in requests:
                out[name] += value
        for req, counter in self._policy_counters:
            if req in requests:
                out["realtime.policy_calls"] += next(counter)
        self._policy_counters.clear()
        return out

    def self_times(self):
        """Per-span self time: duration minus the union of its children."""
        children = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(idx)
        out = []
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c in sorted(children[idx], key=lambda j: self.spans[j][1]):
                c_start = max(self.spans[c][1], reach)
                c_end = min(self.spans[c][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def summarize(self, requests):
        """Self seconds per span name, and the worst per-request accounting gap.

        Sums run over the spans of the given request ids.  The gap is
        |root wall time - sum of self times| / root wall time, which is zero
        up to rounding when every span nests inside its parent.
        """
        selfs = self.self_times()
        by_name = defaultdict(float)
        per_request = defaultdict(float)
        roots = {}
        for idx, span in enumerate(self.spans):
            req = span[4]
            if req not in requests:
                continue
            by_name[span[0]] += selfs[idx]
            per_request[req] += selfs[idx]
            if span[3] is None:
                roots[req] = roots.get(req, 0.0) + (span[2] - span[1])
        gap = max((abs(roots[r] - per_request[r]) / roots[r]
                   for r in roots if roots[r] > 0), default=0.0)
        return by_name, gap

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
