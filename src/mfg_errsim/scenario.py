"""Scenario configs, batch experiment pipelines, and file outputs.

A scenario is a JSON document selecting one of four experiment modes:

* predict  -- deviation of predicted/actual mean fields for one error pair,
* evolve   -- sweep the average error magnitude and regress deviations on it,
* correct  -- one-time error recovery and strategy modification at t0,
* realtime -- per-node re-estimation with a configurable estimator policy.

Every run writes CSV files (17 significant digits, time column first), a
generic gnuplot script referencing only the CSVs, and a manifest listing
every output with its column schema.

The solves that depend only on the parameter set and the grid are kept
across runs: the Riccati bundle, and the deviation maps and realtime
kernels built from it on the first run of a mode that reads them (evolve
reads neither, realtime only the kernels).  An entry's key is the grid, T
and the bytes of every parameter array.  At most _SOLVED_MAX = 2 entries
are kept; a new entry evicts the one with the fewest hits, the oldest on a
tie, so a stream of one-off parameter sets never evicts a set that
repeats.  A solve that raises is not kept.  Paths and kernel arrays are
read-only by construction, so an entry is shared safely, and no output of
a run refers to one.  An entry holding all three takes about 0.7 MB at
n = 2 and 2000 steps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import __version__
from .core import equilibrium_mf
from .correction import DEFAULT_SAMPLES, build_correction_problem, recover_errors, residual_path
from .deviations import (
    actual_mf_deviation,
    build_maps,
    expected_trajectory_deviation,
    predicted_mf_deviation,
)
from .errors import ConfigError, MfgError
from .limiting import solve_limiting, solve_limiting_batch
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

# the array fields of SystemParams, which a config's "params" object may set
# beside T; the test-only "relaxed" flag is not a config key
_PARAM_ARRAYS = tuple(f.name for f in fields(SystemParams) if f.name not in ("T", "relaxed"))


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

        d = {f.name: conv(getattr(self, f.name)) for f in fields(self)
             if f.name not in ("params", "output_dir")}
        d["params"] = {name: conv(getattr(self.params, name))
                       for name in _PARAM_ARRAYS + ("T",)}
        return d


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    grid_steps: int
    version: str
    files: dict  # filename -> {"columns": [...], "rows": int}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(vars(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


_KNOWN_KEYS = {f.name for f in fields(ScenarioConfig)}


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
                    if not _finite_number(value) or not value > 0:
                        problems.append(("params.T", "must be a positive finite number"))
                    else:
                        kwargs["T"] = float(value)
                elif name in _PARAM_ARRAYS:
                    try:
                        kwargs[name] = np.asarray(value, dtype=float)
                    except (TypeError, ValueError):
                        problems.append((f"params.{name}", "must be a numeric array"))
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

    def take_scalar(key, typ, check, reason):
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
    take_scalar("t0", (int, float), lambda v: _finite_number(v) and v > 0,
                "must be a positive finite time")
    take_scalar("D", (int, float), lambda v: _finite_number(v) and v >= 0,
                "must be nonnegative and finite")
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
            problems.append(("output_dir", "must be a nonempty string"))
        else:
            cfg_kwargs["output_dir"] = raw["output_dir"]
    if "k_sweep" in raw:
        ks = raw["k_sweep"]
        if (not isinstance(ks, list) or not ks
                or not all(_finite_number(k) for k in ks)):
            problems.append(("k_sweep", "must be a nonempty list of finite numbers"))
        else:
            ks = [float(k) for k in ks]
            if len(set(ks)) < 2:
                problems.append(("k_sweep", "must hold at least two distinct values "
                                            "to fit a line"))
            elif len(set(ks)) < len(ks):
                problems.append(("k_sweep", "must not repeat a value"))
            else:
                cfg_kwargs["k_sweep"] = ks

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
            elif not np.isfinite(v).all():
                problems.append((key, "must be finite"))
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
    at_nodes = {"correct": [("t0", cfg.t0)],
                "evolve": [("grid_steps", t) for t in _probe_times(cfg.params)]}
    for key, t in at_nodes.get(mode, []):
        try:
            grid.index_of(t)
        except ValueError:
            raise ConfigError([(key, f"must put t = {t:g} on a grid node")]) from None
    # correction samples the drift on (0, t0] and restarts the game on [t0, T]
    if mode == "correct" and not DEFAULT_SAMPLES <= grid.index_of(cfg.t0) < grid.steps:
        raise ConfigError([("t0", f"must lie before T = {cfg.params.T:g} and leave "
                                  f"{DEFAULT_SAMPLES} grid nodes in (0, t0]")])
    return cfg


def _finite_number(v) -> bool:
    """Whether v is a JSON number (not a bool) that a float holds finitely:
    an integer past the float range is not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


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
    row_fmt = ",".join([_FMT] * arr.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in arr.tolist():
            fh.write(row_fmt % tuple(row))
    return {"columns": list(header), "rows": int(arr.shape[0])}


def _write_table(out, files, name, columns):
    """Write the (label, values) columns to out/name and record the file in
    files.  1-d values are the one column `label`; (rows, n) values are the
    columns label1 .. label<n>.  A non-finite value raises MfgError naming
    the file and the column."""
    header, cols = [], []
    for label, values in columns:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            header.append(label)
            cols.append(values)
        else:
            header += [f"{label}{j + 1}" for j in range(values.shape[1])]
            cols += list(values.T)
    finite = [bool(np.isfinite(c).all()) for c in cols]
    if not all(finite):
        raise MfgError(f"{name}: column {header[finite.index(False)]} holds a "
                       "non-finite value")
    files[name] = _write_csv(os.path.join(out, name), header, cols)


def _write_series(out, files, name, grid, columns):
    """_write_table of node arrays behind a time column t, thinned for file
    output to every max(1, K // 200)-th node, the last node kept."""
    K = grid.steps
    idx = np.arange(0, K + 1, max(1, K // 200))
    if idx[-1] != K:
        idx = np.append(idx, K)
    _write_table(out, files, name,
                 [("t", grid.times[idx])] + [(label, v[idx]) for label, v in columns])


def _k_labels(ks):
    """Header labels of a k sweep: %g, except that values whose %g labels
    collide get their shortest round-trip form, so no two labels agree."""
    short = [f"{k:g}" for k in ks]
    return [np.format_float_positional(k, trim="-") if short.count(g) > 1 else g
            for k, g in zip(ks, short)]


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


@np.errstate(over="ignore", invalid="ignore")
def _fit_line(k_values, y_values):
    """Least-squares line y = a k + b; returns slope, intercept, R^2.  An
    overflow is not warned about: it shows as a non-finite figure, which
    _write_table rejects."""
    k = np.asarray(k_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    A = np.column_stack([k, np.ones_like(k)])
    (a, b), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (a * k + b)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2


# the solves kept across runs (see the module docstring), oldest first
_SOLVED_MAX = 2
_solved_cache: dict = {}


class _Solved:
    """The Riccati bundle of one parameter set and grid, with the deviation
    maps and realtime kernels built on first read."""

    def __init__(self, params: SystemParams, grid):
        self.bundle = RiccatiBundle.solve(params, grid)
        self.hits = 0

    @cached_property
    def maps(self):
        return build_maps(self.bundle)

    @cached_property
    def kernels(self):
        return build_kernels(self.bundle)


def _solved(params: SystemParams, grid) -> _Solved:
    """The kept solves of (params, grid), solving them on a miss."""
    key = (grid,) + params.key
    entry = _solved_cache.get(key)
    if entry is not None:
        entry.hits += 1
        return entry
    entry = _Solved(params, grid)
    if len(_solved_cache) >= _SOLVED_MAX:
        # min keeps the first of equal counts, and the dict is oldest first
        del _solved_cache[min(_solved_cache, key=lambda k: _solved_cache[k].hits)]
    _solved_cache[key] = entry
    return entry


def run_scenario(config: ScenarioConfig, output_dir=None) -> RunManifest:
    """Execute the configured pipeline and write all outputs."""
    out = output_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    grid = config.grid()
    solved = _solved(config.params, grid)
    bundle = solved.bundle
    files = {}
    n = config.params.n
    E_i = config.E_i if config.E_i is not None else config.E_bar

    if config.mode == "predict":
        maps = solved.maps
        run = solve_limiting(bundle, config.z0, E_i, config.E_bar)
        zc = run.z_c.z.values
        _write_series(out, files, "mf_predicted.csv", grid,
                      [("z_c", zc), ("z_pred", run.mf_i.z.values)])
        _write_series(out, files, "mf_actual.csv", grid,
                      [("z_c", zc), ("z_actual", run.z_A.values)])
        _write_series(out, files, "deviations.csv", grid, [
            ("dz_pred", predicted_mf_deviation(maps, E_i)["dz"].values),
            ("dz_actual", actual_mf_deviation(maps, config.E_bar)["dz"].values),
            ("dx_exp", expected_trajectory_deviation(maps, E_i, config.E_bar).values),
        ])

    elif config.mode == "evolve":
        # a direct solve per k, plus the baseline realized field with zero
        # errors in the same representation as z_A, so the regression
        # intercept is free of route mismatch
        *runs, ref = solve_limiting_batch(
            bundle, config.z0,
            [(k * config.E_bar, k * config.E_bar) for k in config.k_sweep + [0.0]])
        # deviations per k at probe times, then per-component regressions
        rows = []
        for kind, extract in (
            (0.0, lambda r: r.zbar.z.values - r.z_c.z.values),
            (1.0, lambda r: r.z_A.values - ref.z_A.values),
        ):
            devs = [extract(r) for r in runs]
            for tp in _probe_times(config.params):
                kk = grid.index_of(tp)
                for j in range(n):
                    rows.append((kind, tp, float(j + 1),
                                 *_fit_line(config.k_sweep, [d[kk, j] for d in devs])))
        labels = ("kind_actual", "t", "component", "slope", "intercept", "r_squared")
        _write_table(out, files, "linearity.csv",
                     zip(labels, np.reshape(rows, (-1, len(labels))).T))
        base = runs[0]
        _write_series(out, files, "mf_actual.csv", grid,
                      [("z_c", base.z_c.z.values), ("z_actual", base.z_A.values)])
        _write_series(out, files, "deviations.csv", grid, [
            (f"dz_actual_k{k}_", r.z_A.values - r.z_c.z.values)
            for k, r in zip(_k_labels(config.k_sweep), runs)])

    elif config.mode == "correct":
        maps = solved.maps
        run = solve_limiting(bundle, config.z0, E_i, config.E_bar)
        # the deterministic pipeline knows the drift exactly; the
        # finite-difference estimator is exercised in the test suite
        Ob = run.observable()
        Ob1 = residual_path(Ob, run.mf_i.z, run.g_i, config.params, bundle.P1)
        problem = build_correction_problem(
            maps, Ob1, config.t0, z_i_t0=run.mf_i.z.at(config.t0))
        # recover_errors raises unless the stacked system has full rank
        result = recover_errors(problem)
        # the restarted mean field of correction.modified_game, without the
        # offset and law that no file reads
        k0 = grid.index_of(config.t0)
        z_new = equilibrium_mf(bundle, result.z_A_t0, k0).z.values
        _write_table(out, files, "correction_report.csv", [
            ("t", [config.t0]), ("identifiable", [float(result.rank == 2 * n)]),
            ("rank", [float(result.rank)]), ("residual", [result.residual]),
            ("E_bar_recovered", [result.E_bar]), ("E_i_recovered", [result.E_i]),
            ("E_bar_true", [config.E_bar]), ("z_A_t0", [result.z_A_t0]),
        ])
        zc, za = run.z_c.z.values, run.z_A.values
        z_corr = np.vstack([za[:k0], z_new])
        _write_series(out, files, "mf_actual.csv", grid,
                      [("z_c", zc), ("z_uncorrected", za), ("z_corrected", z_corr)])
        _write_series(out, files, "deviations.csv", grid,
                      [("dz_uncorrected", za - zc), ("dz_corrected", z_corr - zc)])

    elif config.mode == "realtime":
        kernels = solved.kernels
        # every agent starts at z0; the policy carries the errors
        pop = [(config.z0, np.zeros(n))] * config.N
        policy = (constant_error_policy(config.E_bar)
                  if np.any(config.E_bar) else truth_policy())
        res = realtime_simulate(
            config.params, bundle, pop, policy, grid=grid, seed=config.seed,
            z0=config.z0, D=config.D, kernels=kernels)
        zc, za = res["z_c"].values, res["z_A"].values
        _write_series(out, files, "mf_actual.csv", grid,
                      [("z_c", zc), ("z_actual", za)])
        _write_series(out, files, "deviations.csv", grid, [
            ("dz_realized", za - zc),
            ("dz_predicted", res["predicted_deviation"].values)])
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
