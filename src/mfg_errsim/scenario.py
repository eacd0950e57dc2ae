"""Scenario configs, batch experiment pipelines, and file outputs.

A scenario is a JSON document selecting one of four experiment modes:

* predict  -- deviation of predicted/actual mean fields for one error pair,
* evolve   -- sweep the average error magnitude and regress deviations on it,
* correct  -- one-time error recovery and strategy modification at t0,
* realtime -- per-node re-estimation with a configurable estimator policy.

Every run writes CSV files (17 significant digits, time column first), a
generic gnuplot script referencing only the CSVs, and a manifest listing
every output with its column schema.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .correction import (
    build_correction_problem,
    identifiability,
    modified_game,
    recover_errors,
    residual_path,
)
from .deviations import (
    actual_mf_deviation,
    build_maps,
    expected_trajectory_deviation,
    predicted_mf_deviation,
)
from .errors import ConfigError
from .limiting import solve_limiting
from .params import P6_EBAR_BASE, P6_Z0, SystemParams, p6_params
from .realtime import (
    build_kernels,
    constant_error_policy,
    realtime_simulate,
    truth_policy,
)
from .riccati import RiccatiBundle

_MODES = ("predict", "evolve", "correct", "realtime")
_FMT = "%.17g"
# evolve mode regresses the deviations at these times (those before T)
_EVOLVE_PROBES = (0.25, 1.0, 1.75)

_PARAM_MATRICES = ("A", "B", "C", "F", "D", "Q_I", "Q", "Qbar_I", "Qbar",
                   "R", "Gamma", "Gammabar")
_PARAM_VECTORS = ("eta", "etabar", "s", "sbar")


@dataclass
class ScenarioConfig:
    params: SystemParams
    mode: str
    grid_steps: int = 2000
    N: int = 800
    seed: int = 42
    z0: np.ndarray = field(default_factory=lambda: P6_Z0.copy())
    E_bar: np.ndarray = field(default_factory=lambda: P6_EBAR_BASE.copy())
    E_i: np.ndarray | None = None
    t0: float = 0.5
    k_sweep: list = field(default_factory=lambda: [1.0, 2.0, 3.0, 4.0])
    D: float | None = None
    output_dir: str = "out"

    def grid(self):
        return self.params.default_grid(self.grid_steps)

    def canonical(self) -> dict:
        """JSON-stable representation used for hashing."""

        def conv(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            return v

        d = {
            "mode": self.mode, "grid_steps": self.grid_steps, "N": self.N,
            "seed": self.seed, "z0": conv(self.z0), "E_bar": conv(self.E_bar),
            "E_i": conv(self.E_i), "t0": self.t0,
            "k_sweep": list(self.k_sweep), "D": self.D,
        }
        d["params"] = {
            name: conv(getattr(self.params, name))
            for name in _PARAM_MATRICES + _PARAM_VECTORS
        }
        d["params"]["T"] = self.params.T
        return d


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    grid_steps: int
    version: str
    files: dict  # filename -> {"columns": [...], "rows": int}

    def write(self, path):
        doc = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "grid_steps": self.grid_steps,
            "version": self.version,
            "files": self.files,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


_KNOWN_KEYS = {"params", "mode", "grid_steps", "N", "seed", "z0", "E_bar",
               "E_i", "t0", "k_sweep", "D", "output_dir"}


def validate_config(raw) -> ScenarioConfig:
    """Turn a parsed JSON document into a typed config, strictly.

    Unknown keys and inconsistent dimensions are rejected; every problem is
    reported with its field path.
    """
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", "document must be a JSON object")])
    problems = []
    for key in raw:
        if key not in _KNOWN_KEYS:
            problems.append((key, "unknown key"))

    params = None
    if "params" in raw:
        pr = raw["params"]
        if not isinstance(pr, dict):
            problems.append(("params", "must be an object"))
        else:
            base = p6_params()
            kwargs = {}
            for name, value in pr.items():
                if name == "T":
                    if not isinstance(value, (int, float)) or value <= 0:
                        problems.append(("params.T", "must be a positive number"))
                    else:
                        kwargs["T"] = float(value)
                elif name in _PARAM_MATRICES + _PARAM_VECTORS:
                    kwargs[name] = np.asarray(value, dtype=float)
                else:
                    problems.append((f"params.{name}", "unknown parameter"))
            if not problems:
                try:
                    params = base.with_(**kwargs)
                except ValueError as e:
                    problems.append(("params", str(e)))
    else:
        params = p6_params()

    mode = raw.get("mode")
    if mode not in _MODES:
        problems.append(("mode", f"must be one of {', '.join(_MODES)}"))

    cfg_kwargs = {}

    def take_scalar(key, typ, check, reason, default=None):
        if key not in raw:
            return
        v = raw[key]
        if not isinstance(v, typ) or isinstance(v, bool) or not check(v):
            problems.append((key, reason))
        else:
            cfg_kwargs[key] = v

    take_scalar("grid_steps", int, lambda v: v >= 1, "must be a positive integer")
    take_scalar("N", int, lambda v: v >= 1, "must be a positive integer")
    take_scalar("seed", int, lambda v: v >= 0, "must be a nonnegative integer")
    take_scalar("t0", (int, float), lambda v: v > 0, "must be a positive time")
    take_scalar("D", (int, float), lambda v: v >= 0, "must be nonnegative")
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            problems.append(("output_dir", "must be a nonempty string"))
        else:
            cfg_kwargs["output_dir"] = raw["output_dir"]
    if "k_sweep" in raw:
        ks = raw["k_sweep"]
        if (not isinstance(ks, list) or not ks
                or not all(isinstance(k, (int, float)) for k in ks)):
            problems.append(("k_sweep", "must be a nonempty list of numbers"))
        else:
            cfg_kwargs["k_sweep"] = [float(k) for k in ks]

    n = params.n if params is not None else None
    for key in ("z0", "E_bar", "E_i"):
        if key in raw and raw[key] is not None:
            try:
                v = np.asarray(raw[key], dtype=float)
            except (TypeError, ValueError):
                problems.append((key, "must be a numeric vector"))
                continue
            if n is not None and v.shape != (n,):
                problems.append((key, f"must have length {n}"))
            else:
                cfg_kwargs[key] = v
    # the defaults belong to the built-in 2-d fixture
    for key, default in (("z0", P6_Z0), ("E_bar", P6_EBAR_BASE)):
        if n is not None and raw.get(key) is None and default.shape != (n,):
            problems.append((key, f"required when params have n = {n}: "
                                  f"give a vector of length {n}"))

    if problems:
        raise ConfigError(problems)
    cfg = ScenarioConfig(params=params, mode=mode, **cfg_kwargs)
    grid = cfg.grid()
    # (field, time) of every time the mode reads at a grid node
    at_nodes = {"correct": [("t0", cfg.t0)], "realtime": [("t0", cfg.t0)],
                "evolve": [("grid_steps", t) for t in _probe_times(cfg.params)]}
    for key, t in at_nodes.get(mode, []):
        try:
            grid.index_of(t)
        except ValueError:
            raise ConfigError([(key, f"must put t = {t:g} on a grid node")]) from None
    return cfg


def _probe_times(params: SystemParams) -> list:
    return [t for t in _EVOLVE_PROBES if t < params.T]


def load_document(path):
    """The parsed JSON document at path, not yet validated."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError([("<document>", f"not valid JSON: {e}")]) from None


def load_config(path) -> ScenarioConfig:
    return validate_config(load_document(path))


def _config_hash(config: ScenarioConfig) -> str:
    blob = json.dumps(config.canonical(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_csv(path, header, columns):
    """Write columns (1-d arrays of equal length) with full precision."""
    arr = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in arr:
            fh.write(",".join(_FMT % v for v in row) + "\n")
    return {"columns": list(header), "rows": int(arr.shape[0])}


def _decimate(times, arrays, keep=201):
    """Thin dense paths for file output; keeps endpoints."""
    K = len(times) - 1
    stride = max(1, K // (keep - 1))
    idx = np.arange(0, K + 1, stride)
    if idx[-1] != K:
        idx = np.append(idx, K)
    return times[idx], [a[idx] for a in arrays], idx


def _component_headers(prefix, n):
    return [f"{prefix}{j + 1}" for j in range(n)]


def _plot_script(path, csv_specs):
    """Generic gnuplot script plotting every data column against t."""
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        "set grid",
    ]
    for fname, ncols in csv_specs:
        cols = "".join(f" '{fname}' using 1:{c} with lines," for c in range(2, ncols + 1))
        lines.append(f"plot{cols.rstrip(',')}")
        lines.append("pause -1")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fit_line(k_values, y_values):
    """Least-squares line y = a k + b; returns slope, intercept, R^2."""
    k = np.asarray(k_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    A = np.column_stack([k, np.ones_like(k)])
    (a, b), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (a * k + b)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2


def run_scenario(config: ScenarioConfig, output_dir=None) -> RunManifest:
    """Execute the configured pipeline and write all outputs."""
    out = output_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    grid = config.grid()
    bundle = RiccatiBundle.solve(config.params, grid)
    files = {}
    n = config.params.n
    E_i = config.E_i if config.E_i is not None else config.E_bar

    if config.mode == "predict":
        maps = build_maps(bundle)
        run = solve_limiting(bundle, config.z0, E_i, config.E_bar)
        pred = predicted_mf_deviation(maps, E_i)
        act = actual_mf_deviation(maps, config.E_bar)
        exp = expected_trajectory_deviation(maps, E_i, config.E_bar)
        t, cols, _ = _decimate(grid.times, [
            run.z_c.z.values, run.mf_i.z.values, run.z_A.values,
            pred["dz"].values, act["dz"].values, exp.values,
        ])
        zc, zi, za, dzp, dza, dxe = cols
        files["mf_predicted.csv"] = _write_csv(
            os.path.join(out, "mf_predicted.csv"),
            ["t"] + _component_headers("z_c", n) + _component_headers("z_pred", n),
            [t] + list(zc.T) + list(zi.T),
        )
        files["mf_actual.csv"] = _write_csv(
            os.path.join(out, "mf_actual.csv"),
            ["t"] + _component_headers("z_c", n) + _component_headers("z_actual", n),
            [t] + list(zc.T) + list(za.T),
        )
        files["deviations.csv"] = _write_csv(
            os.path.join(out, "deviations.csv"),
            ["t"] + _component_headers("dz_pred", n)
            + _component_headers("dz_actual", n) + _component_headers("dx_exp", n),
            [t] + list(dzp.T) + list(dza.T) + list(dxe.T),
        )

    elif config.mode == "evolve":
        runs = [solve_limiting(bundle, config.z0, k * config.E_bar, k * config.E_bar)
                for k in config.k_sweep]
        # baseline realized field with zero errors, in the same representation
        # as z_A, so the regression intercept is free of route mismatch
        ref = solve_limiting(bundle, config.z0, 0.0 * config.E_bar,
                             0.0 * config.E_bar)
        # deviations per k at probe times, then per-component regressions
        probe_times = _probe_times(config.params)
        rows = {"kind": [], "t": [], "component": [], "slope": [],
                "intercept": [], "r_squared": []}
        for kind, extract in (
            ("predicted", lambda r: r.zbar.z.values - r.z_c.z.values),
            ("actual", lambda r: r.z_A.values - ref.z_A.values),
        ):
            devs = [extract(r) for r in runs]
            for tp in probe_times:
                kk = grid.index_of(tp)
                for j in range(n):
                    ys = [d[kk, j] for d in devs]
                    a, b, r2 = _fit_line(config.k_sweep, ys)
                    rows["kind"].append(0.0 if kind == "predicted" else 1.0)
                    rows["t"].append(tp)
                    rows["component"].append(float(j + 1))
                    rows["slope"].append(a)
                    rows["intercept"].append(b)
                    rows["r_squared"].append(r2)
        files["linearity.csv"] = _write_csv(
            os.path.join(out, "linearity.csv"),
            ["kind_actual", "t", "component", "slope", "intercept", "r_squared"],
            [np.asarray(rows["kind"]), np.asarray(rows["t"]),
             np.asarray(rows["component"]), np.asarray(rows["slope"]),
             np.asarray(rows["intercept"]), np.asarray(rows["r_squared"])],
        )
        base = runs[0]
        t, cols, _ = _decimate(grid.times, [base.z_c.z.values, base.z_A.values])
        zc, za = cols
        files["mf_actual.csv"] = _write_csv(
            os.path.join(out, "mf_actual.csv"),
            ["t"] + _component_headers("z_c", n) + _component_headers("z_actual", n),
            [t] + list(zc.T) + list(za.T),
        )
        dzs = [r.z_A.values - r.z_c.z.values for r in runs]
        t, cols, _ = _decimate(grid.times, dzs)
        header = ["t"]
        out_cols = [t]
        for k, d in zip(config.k_sweep, cols):
            header += [f"dz_actual_k{k:g}_{j + 1}" for j in range(n)]
            out_cols += list(d.T)
        files["deviations.csv"] = _write_csv(
            os.path.join(out, "deviations.csv"), header, out_cols)

    elif config.mode == "correct":
        maps = build_maps(bundle)
        run = solve_limiting(bundle, config.z0, E_i, config.E_bar)
        # the deterministic pipeline knows the drift exactly; the
        # finite-difference estimator is exercised in the test suite
        Ob = run.observable()
        Ob1 = residual_path(Ob, run.mf_i.z, run.g_i, config.params, bundle.P1)
        problem = build_correction_problem(
            maps, Ob1, config.t0, z_i_t0=run.mf_i.z.at(config.t0))
        ident = identifiability(problem)
        result = recover_errors(problem)
        mod = modified_game(config.params, bundle, result.z_A_t0, config.t0)
        files["correction_report.csv"] = _write_csv(
            os.path.join(out, "correction_report.csv"),
            ["t", "identifiable", "rank", "residual"]
            + _component_headers("E_bar_recovered", n)
            + _component_headers("E_i_recovered", n)
            + _component_headers("E_bar_true", n)
            + _component_headers("z_A_t0", n),
            [np.array([config.t0]), np.array([float(ident["identifiable"])]),
             np.array([float(ident["rank"])]), np.array([result.residual])]
            + [np.array([v]) for v in result.E_bar]
            + [np.array([v]) for v in result.E_i]
            + [np.array([v]) for v in config.E_bar]
            + [np.array([v]) for v in result.z_A_t0],
        )
        k0 = grid.index_of(config.t0)
        z_corr = np.vstack([run.z_A.values[:k0], mod["z_new"].values])
        t, cols, _ = _decimate(grid.times, [
            run.z_c.z.values, run.z_A.values, z_corr])
        zc, za, zcorr = cols
        files["mf_actual.csv"] = _write_csv(
            os.path.join(out, "mf_actual.csv"),
            ["t"] + _component_headers("z_c", n)
            + _component_headers("z_uncorrected", n)
            + _component_headers("z_corrected", n),
            [t] + list(zc.T) + list(za.T) + list(zcorr.T),
        )
        dev_unc = run.z_A.values - run.z_c.z.values
        dev_cor = z_corr - run.z_c.z.values
        t, cols, _ = _decimate(grid.times, [dev_unc, dev_cor])
        du, dc = cols
        files["deviations.csv"] = _write_csv(
            os.path.join(out, "deviations.csv"),
            ["t"] + _component_headers("dz_uncorrected", n)
            + _component_headers("dz_corrected", n),
            [t] + list(du.T) + list(dc.T),
        )

    elif config.mode == "realtime":
        from .population import sample_population

        kernels = build_kernels(bundle)
        pop = sample_population(
            config.N, init_mean=config.z0, init_cov=np.zeros((n, n)),
            error_mean=np.zeros(n), error_cov=np.zeros((n, n)), seed=config.seed)
        policy = (constant_error_policy(config.E_bar)
                  if np.any(config.E_bar) else truth_policy())
        res = realtime_simulate(
            config.params, bundle, pop, policy, grid=grid, seed=config.seed,
            z0=config.z0, D=config.D, kernels=kernels)
        t, cols, _ = _decimate(grid.times, [
            res["z_c"].values, res["z_A"].values,
            res["z_A"].values - res["z_c"].values,
            res["predicted_deviation"].values,
        ])
        zc, za, dz, pred = cols
        files["mf_actual.csv"] = _write_csv(
            os.path.join(out, "mf_actual.csv"),
            ["t"] + _component_headers("z_c", n) + _component_headers("z_actual", n),
            [t] + list(zc.T) + list(za.T),
        )
        files["deviations.csv"] = _write_csv(
            os.path.join(out, "deviations.csv"),
            ["t"] + _component_headers("dz_realized", n)
            + _component_headers("dz_predicted", n),
            [t] + list(dz.T) + list(pred.T),
        )
    else:  # pragma: no cover - validate_config guards this
        raise ValueError(f"unknown mode {config.mode!r}")

    _plot_script(
        os.path.join(out, "plot.gp"),
        [(name, len(spec["columns"])) for name, spec in sorted(files.items())
         if name.endswith(".csv")],
    )
    files["plot.gp"] = {"columns": [], "rows": 0}
    manifest = RunManifest(
        config_hash=_config_hash(config), seed=config.seed,
        grid_steps=config.grid_steps, version=__version__, files=files)
    manifest.write(os.path.join(out, "manifest.json"))
    return manifest
