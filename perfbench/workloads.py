"""Benchmark workloads: seeded input generation, requests and output checks.

Every workload is a closed loop with one client.  Its requests come in
cycles of fixed composition (the same request kinds and sizes in every
cycle); the workload seed shuffles the order inside each cycle and draws
every numeric input.  The runner takes every timing per request kind and
weights the kinds equally, so mix-dependent figures such as the median
latency do not move with the seed or with where a timed window stops.

The program under test only receives what the generator produced: scenario
config documents, populations, error vectors and estimator policies.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from mfg_errsim import population, realtime, scenario
from mfg_errsim.core import equilibrium_law, equilibrium_mf
from mfg_errsim.deviations import build_maps
from mfg_errsim.params import P6_ERROR_COV, P6_INIT_COV, P6_Z0, p6_params
from mfg_errsim.riccati import RiccatiBundle

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# tolerances taken from the acceptance suite (tests/test_acceptance.py)
MAP_TOL = 1e-6          # acceptance 3: map vs direct two-solve result
R2_MIN = 0.999          # acceptance 4: linearity in the error magnitude
REALTIME_TOL = 5e-3     # acceptance 6: realized vs quadrature deviation
# Acceptance 5 asks for 1e-6 at t0 = 0.5 on P6.  With t0 up to 1.5 and the
# perturbed fixtures the default-grid recovery error reaches 9.4e-7 (40
# requests), so the check allows ten times the acceptance figure; det_err
# tracks the accuracy itself.
RECOVERY_REL_TOL = 1e-5
# det_err above this means default-grid outputs are not trustworthy
DET_ERR_MAX = 1e-6
# Monte Carlo: each component of the terminal empirical mean lies within
# MC_SIGMAS * sigma / sqrt(N) of the limiting value, sigma being the exact
# terminal standard deviation of one agent's noise pushed through the mean
# dynamics, plus the first-order Euler-Maruyama bias, allowed as
# MC_EULER_BIAS * dt (three times the 0.033 * dt measured on P6).
MC_SIGMAS = 5.0
MC_EULER_BIAS = 0.1

# perturbed-fixture rule (see perturbed_params)
PERTURB_EPS = 0.1
PERTURB_MIN_COMMUTATOR = 2e-3
PERTURB_MAX_RE_EIG_A = -0.5
PERTURB_MAX_RE_EIG_AC = -0.2

T0_CHOICES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
PRECOMPUTED_CYCLES = 16


class CheckFailed(Exception):
    """A request's outputs disagree with what the library promises."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def perturbed_params(rng):
    """A and C of a small random non-commuting perturbation of P6 (n = d = 2).

    Well-posedness rule: every entry of dA and dC is uniform in
    [-PERTURB_EPS, PERTURB_EPS]; a draw is kept only if A stays Hurwitz with
    max Re eig(A) <= -0.5, A + C with max Re eig(A + C) <= -0.2, and the
    commutator satisfies ||AC - CA||_F >= 2e-3, so the pair is genuinely
    non-commuting.  Rejected draws are redrawn from the same stream, so the
    result is a deterministic function of the generator state.
    """
    base = p6_params()
    while True:
        A = base.A + rng.uniform(-PERTURB_EPS, PERTURB_EPS, (2, 2))
        C = base.C + rng.uniform(-PERTURB_EPS, PERTURB_EPS, (2, 2))
        if (np.max(np.linalg.eigvals(A).real) <= PERTURB_MAX_RE_EIG_A
                and np.max(np.linalg.eigvals(A + C).real) <= PERTURB_MAX_RE_EIG_AC
                and np.linalg.norm(A @ C - C @ A) >= PERTURB_MIN_COMMUTATOR):
            return {"A": A.tolist(), "C": C.tolist()}


def _signed(rng, lo, hi, n=2):
    """Vector whose entries have magnitude in [lo, hi] and random signs."""
    return (rng.uniform(lo, hi, n) * rng.choice((-1.0, 1.0), n)).tolist()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _columns(header, data, prefix):
    pat = re.compile(re.escape(prefix) + r"\d+$")
    idx = [i for i, h in enumerate(header) if pat.match(h)]
    _require(idx, f"no {prefix}* columns in output")
    return data[:, idx]


def _csv_bytes(manifest, outdir):
    return sum(os.path.getsize(os.path.join(outdir, name))
               for name in manifest.files if name.endswith(".csv"))


def run_config(doc):
    """One scenario request as the program sees it: validate, then run."""
    cfg = scenario.validate_config(doc)
    return cfg, scenario.run_scenario(cfg)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def det_err(reference, outdir):
    """Max abs error of default-config outputs on the committed check set.

    Each check case is run exactly as the library's defaults dictate (no
    grid_steps key), and every output column is compared with the
    Richardson-extrapolated fine-grid reference at the time nodes both share.
    """
    worst = 0.0
    for case in reference["cases"]:
        doc = dict(case["config"], output_dir=outdir)
        run_config(doc)
        for fname, ref in case["files"].items():
            header, data = read_csv(os.path.join(outdir, fname))
            _require(header == ref["columns"], f"{fname}: columns changed")
            ref_vals = np.asarray(ref["values"])
            t_out, t_ref = data[:, 0], ref_vals[:, 0]
            i_out, i_ref = [], []
            for j, t in enumerate(t_ref):
                k = int(np.argmin(np.abs(t_out - t)))
                if abs(t_out[k] - t) <= 1e-9:
                    i_out.append(k)
                    i_ref.append(j)
            _require(len(i_out) >= 11, f"{fname}: too few shared time nodes")
            err = np.max(np.abs(data[i_out, 1:] - ref_vals[i_ref, 1:]))
            _require(np.isfinite(err), f"{fname}: non-finite output")
            worst = max(worst, float(err))
    return worst


class Request:
    """One generated request: its kind plus the inputs handed to the program."""

    def __init__(self, kind, **inputs):
        self.kind = kind
        self.inputs = inputs


class Workload:
    """Base class: fixed cycle composition, seeded order and values."""

    name = ""
    cycle_kinds = ()

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir

    def setup(self):
        """Generate inputs, run set-up solves and load the reference."""
        self.reference = load_reference()
        self._solve()
        self._cycles = [self._make_cycle(i) for i in range(PRECOMPUTED_CYCLES)]

    def _solve(self):
        pass

    def cycle(self, i):
        while len(self._cycles) <= i:
            self._cycles.append(self._make_cycle(len(self._cycles)))
        return self._cycles[i]

    def _make_cycle(self, i):
        rng = np.random.default_rng([self.seed, i])
        kinds = list(self.cycle_kinds)
        order = rng.permutation(len(kinds))
        return [self._make_request(rng, kinds[j], i) for j in order]

    def warmup(self):
        """A request like the first of cycle 0, drawn from its own stream."""
        rng = np.random.default_rng([self.seed, 1 << 30])
        return self._make_request(rng, self.cycle_kinds[0], 0)

    def _make_request(self, rng, kind, cycle):
        raise NotImplementedError

    def execute(self, req):
        raise NotImplementedError

    def check(self, req, out):
        raise NotImplementedError

    def agent_steps(self, req, out):
        raise NotImplementedError

    def csv_bytes(self, req, out):
        return 0

    def _path(self, name):
        return os.path.join(self.outdir, name)


class Deterministic(Workload):
    """run_scenario in predict, evolve and correct modes at the default grid.

    A cycle runs each mode once: on the P6 fixture in even cycles, on fresh
    perturbed fixtures in odd ones.  About half the requests therefore share
    params with an earlier request.  Both fixtures run the same code on the
    same grid, so the alternation does not change the cost of a cycle.
    """

    name = "deterministic"
    cycle_kinds = ("predict", "evolve", "correct")

    def _make_request(self, rng, kind, cycle):
        doc = {
            "mode": kind,
            "z0": (P6_Z0 + rng.uniform(-0.1, 0.1, 2)).tolist(),
            "E_bar": _signed(rng, 0.05, 0.2),
            "E_i": _signed(rng, 0.05, 0.2),
            "t0": float(rng.choice(T0_CHOICES)),
            "k_sweep": sorted(rng.uniform(0.5, 4.0, 4).tolist()),
            "output_dir": self.outdir,
        }
        if cycle % 2:
            doc["params"] = perturbed_params(rng)
        return Request(kind, doc=doc)

    def execute(self, req):
        return run_config(req.inputs["doc"])

    def params_key(self, req):
        return json.dumps(req.inputs["doc"].get("params"))

    def agent_steps(self, req, out):
        # the tagged agent's expected trajectory is stepped once per limiting
        # solve: one in predict and correct, len(k_sweep) + 1 in evolve
        cfg, manifest = out
        n_paths = len(cfg.k_sweep) + 1 if req.kind == "evolve" else 1
        return manifest.grid_steps * n_paths

    def csv_bytes(self, req, out):
        return _csv_bytes(out[1], self.outdir)

    def check(self, req, out):
        cfg, _ = out
        path = self._path
        if req.kind == "predict":
            h, d = read_csv(path("mf_predicted.csv"))
            dz_pred_direct = _columns(h, d, "z_pred") - _columns(h, d, "z_c")
            h, d = read_csv(path("mf_actual.csv"))
            dz_act_direct = _columns(h, d, "z_actual") - _columns(h, d, "z_c")
            h, d = read_csv(path("deviations.csv"))
            err = max(np.max(np.abs(_columns(h, d, "dz_pred") - dz_pred_direct)),
                      np.max(np.abs(_columns(h, d, "dz_actual") - dz_act_direct)))
            _require(err <= MAP_TOL, f"predict: map vs direct {err:.3g}")
        elif req.kind == "evolve":
            h, d = read_csv(path("linearity.csv"))
            r2 = d[:, h.index("r_squared")]
            _require(np.all(r2 >= R2_MIN), f"evolve: R^2 {np.min(r2):.6f}")
        else:
            h, d = read_csv(path("correction_report.csv"))
            row = d[0]
            n = cfg.params.n
            _require(row[h.index("identifiable")] == 1.0, "correct: not identifiable")
            _require(row[h.index("rank")] == 2 * n, "correct: rank below 2n")
            for got, true in (
                (_columns(h, d, "E_bar_recovered")[0], cfg.E_bar),
                (_columns(h, d, "E_i_recovered")[0], cfg.E_i),
            ):
                rel = np.linalg.norm(got - true) / np.linalg.norm(true)
                _require(rel <= RECOVERY_REL_TOL, f"correct: recovery rel err {rel:.3g}")


# Monte Carlo cycle: every N once per law; noise and coupling assigned so that
# each N and each law sees noise on and D = 0, and a quarter of the requests
# use prescribed (z, ubar) coupling.  (N, law, noisy, prescribed)
_MC_KINDS = (
    (50, "family", True, False),
    (200, "family", False, False),
    (800, "family", True, True),
    (2000, "family", False, False),
    (50, "shared", False, False),
    (200, "shared", True, True),
    (800, "shared", False, False),
    (2000, "shared", True, False),
)


class MonteCarlo(Workload):
    """sample_population + simulate on P6; Riccati, maps and laws in set-up."""

    name = "montecarlo"
    cycle_kinds = _MC_KINDS

    def _solve(self):
        self.params = p6_params()
        self.grid = self.params.default_grid()
        self.bundle = RiccatiBundle.solve(self.params, self.grid)
        self.maps = build_maps(self.bundle)
        self.mf = equilibrium_mf(self.bundle, P6_Z0)
        self.law = equilibrium_law(self.bundle, self.mf)
        self.sigma = {False: self._terminal_sigma(self.maps.PhiZ),
                      True: self._terminal_sigma(self.maps.PhiX)}

    def _terminal_sigma(self, Phi):
        """Per-component std of Phi(T) int Phi(s)^-1 D dW(s), Euler-summed."""
        D = self.params.D
        to_T = np.einsum("ij,kjl->kil", Phi.terminal, np.linalg.inv(Phi.values))
        cov = np.einsum("kij,jl,kml->kim", to_T[:-1], D @ D.T, to_T[:-1])
        return np.sqrt(np.diag(cov.sum(axis=0) * self.grid.dt))

    def _make_request(self, rng, kind, cycle):
        N, law, noisy, prescribed = kind
        error_mean = (rng.uniform(-0.2, 0.2, 2) if law == "family" else np.zeros(2))
        return Request(kind, N=N, law=law, D=None if noisy else 0.0,
                       prescribed=prescribed, error_mean=error_mean,
                       seed=int(rng.integers(1 << 31)))

    def execute(self, req):
        q = req.inputs
        pop = population.sample_population(
            q["N"], init_mean=P6_Z0, init_cov=P6_INIT_COV,
            error_mean=q["error_mean"], error_cov=P6_ERROR_COV, seed=q["seed"])
        if q["law"] == "family":
            law = population.OffsetFamilyLaw(
                self.params, self.bundle.P1, self.law.g, self.maps.Mg,
                [e for _, e in pop])
        else:
            law = self.law
        coupling = (self.mf.z, self.mf.ubar) if q["prescribed"] else "empirical"
        res = population.simulate(self.params, pop, law, mf_coupling=coupling,
                                  grid=self.grid, seed=q["seed"], D=q["D"])
        return pop, res

    def agent_steps(self, req, out):
        _, res = out
        return len(res.traces) * (len(res.x_N) - 1)

    def check(self, req, out):
        """Terminal empirical mean against the limiting value.

        Empirical coupling: z_c + Mz E_mean + PhiZ (xbar0 - z0).  Prescribed
        (z_c, ubar_c) coupling: z_c + Mx1 E_mean + PhiX (xbar0 - z0).  The
        E_mean terms apply to the heterogeneous-offset law only.
        """
        pop, res = out
        q = req.inputs
        m = self.maps
        x0 = np.array([p[0] for p in pop])
        e_mean = np.mean([p[1] for p in pop], axis=0)
        M, Phi = (m.Mx1, m.PhiX) if q["prescribed"] else (m.Mz, m.PhiZ)
        limit = self.mf.z.terminal + Phi.terminal @ (x0.mean(axis=0) - P6_Z0)
        if q["law"] == "family":
            limit = limit + M.terminal @ e_mean
        err = np.abs(res.x_N.terminal - limit)
        sigma = 0.0 if q["D"] == 0.0 else self.sigma[q["prescribed"]]
        tol = MC_SIGMAS * sigma / np.sqrt(len(pop)) + MC_EULER_BIAS * self.grid.dt
        _require(np.all(err <= tol),
                 f"montecarlo: terminal mean off by {np.max(err):.3g}, allowed "
                 f"{np.max(tol):.3g}")


# Realtime cycle: direct realtime_simulate calls, plus run_scenario in
# realtime mode at the default N and grid, once with a constant and once with
# a truthful estimator.  The decaying policy costs about 2.5x the holding one
# per call, so it runs at the two smaller sizes only.
_RT_KINDS = (
    ("direct", 50, "hold"),
    ("direct", 200, "hold"),
    ("direct", 800, "hold"),
    ("direct", 50, "decay"),
    ("direct", 200, "decay"),
    ("scenario", None, "constant"),
    ("scenario", None, "truth"),
)


class Realtime(Workload):
    """Per-node re-estimation: the estimator callback runs per agent per node."""

    name = "realtime"
    cycle_kinds = _RT_KINDS

    def _solve(self):
        self.params = p6_params()
        self.grid = self.params.default_grid()
        self.bundle = RiccatiBundle.solve(self.params, self.grid)
        self.kernels = realtime.build_kernels(self.bundle, build_maps(self.bundle))

    def _make_request(self, rng, kind, cycle):
        what, N, policy = kind
        if what == "scenario":
            doc = {
                "mode": "realtime",
                "z0": (P6_Z0 + rng.uniform(-0.1, 0.1, 2)).tolist(),
                "E_bar": [0.0, 0.0] if policy == "truth" else _signed(rng, 0.05, 0.2),
                "seed": int(rng.integers(1 << 31)),
                "D": 0.0,
                "output_dir": self.outdir,
            }
            return Request(kind, doc=doc)
        L_init = np.linalg.cholesky(P6_INIT_COV)
        L_err = np.linalg.cholesky(P6_ERROR_COV)
        x0 = P6_Z0 + rng.standard_normal((N, 2)) @ L_init.T
        errors = rng.uniform(-0.2, 0.2, 2) + rng.standard_normal((N, 2)) @ L_err.T
        pop = [(x0[i], errors[i]) for i in range(N)]
        return Request(kind, pop=pop, errors=errors,
                       Ebar=np.asarray(_signed(rng, 0.0, 0.2)),
                       rate=float(rng.uniform(0.5, 2.0)),
                       seed=int(rng.integers(1 << 31)))

    def execute(self, req):
        if req.kind[0] == "scenario":
            return run_config(req.inputs["doc"])
        q = req.inputs
        if req.kind[2] == "hold":
            policy = realtime.hold_initial_error_policy(q["errors"], q["Ebar"])
        else:
            policy = realtime.decay_to_truth_policy(q["errors"], q["Ebar"], q["rate"])
        return realtime.realtime_simulate(
            self.params, self.bundle, q["pop"], policy, grid=self.grid,
            seed=q["seed"], D=0.0, kernels=self.kernels)

    def agent_steps(self, req, out):
        if req.kind[0] == "scenario":
            cfg, manifest = out
            return cfg.N * manifest.grid_steps
        return len(req.inputs["pop"]) * (len(out["z_A"]) - 1)

    def csv_bytes(self, req, out):
        if req.kind[0] == "scenario":
            return _csv_bytes(out[1], self.outdir)
        return 0

    def check(self, req, out):
        if req.kind[0] == "scenario":
            h, d = read_csv(self._path("deviations.csv"))
            err = float(np.max(np.abs(_columns(h, d, "dz_realized")
                                      - _columns(h, d, "dz_predicted"))))
        else:
            err = out["deviation_report"]["max_abs_mismatch"]
        _require(np.isfinite(err) and err <= REALTIME_TOL,
                 f"realtime: realized vs predicted deviation {err:.3g}")


WORKLOADS = {w.name: w for w in (Deterministic, MonteCarlo, Realtime)}
