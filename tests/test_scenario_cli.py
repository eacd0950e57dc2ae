"""Scenario configs, batch pipelines, output files, and the CLI."""

import importlib.util
import json
import os
import warnings

import numpy as np
import pytest

from mfg_errsim import correction, deviations, limiting, ode, riccati, scenario
from mfg_errsim.cli import main
from mfg_errsim.errors import ConfigError, FiniteEscapeError
from mfg_errsim.limiting import solve_limiting
from mfg_errsim.params import p6_params
from mfg_errsim.riccati import RiccatiBundle
from mfg_errsim.scenario import (
    ScenarioConfig,
    _fit_line,
    _probe_times,
    load_config,
    run_scenario,
    validate_config,
)


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


# ---------------------------------------------------------------- validation


def test_minimal_document_gets_defaults():
    cfg = validate_config({"mode": "predict"})
    assert cfg.grid_steps == 2000 and cfg.N == 800 and cfg.seed == 42
    assert cfg.mode == "predict"
    np.testing.assert_array_equal(cfg.z0, [0.3, 0.5])


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "predict", "turbo": True})
    assert any(f == "turbo" for f, _ in ei.value.problems)


def test_bad_mode_and_scalars_are_reported_with_field_names():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "extrapolate", "grid_steps": -5, "seed": "x"})
    fields = {f for f, _ in ei.value.problems}
    assert {"mode", "grid_steps", "seed"} <= fields


def test_negative_horizon_rejected():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "predict", "params": {"T": -1.0}})
    assert any(f == "params.T" for f, _ in ei.value.problems)


def test_indefinite_cost_weight_rejected():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "predict",
                         "params": {"Q": [[-1.0, 0.0], [0.0, -1.0]]}})
    assert any("positive definite" in r for _, r in ei.value.problems)


def test_vector_dimension_checks():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "predict", "z0": [1.0, 2.0, 3.0],
                         "E_cov": [[1.0]]})
    fields = {f for f, _ in ei.value.problems}
    assert {"z0", "E_cov"} <= fields


def test_F_must_match_the_control_dimension():
    # P6's 2x2 F with a single control input
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "predict",
                         "params": {"B": [[0.6], [-0.2]], "R": [[1.0]]}})
    assert any(f == "params" and "F must be 2x1" in r for f, r in ei.value.problems)


def _identity_scaled_params(n):
    """P6's identity-scaled matrices and vectors, at state dimension n."""
    eye = np.eye(n)
    mats = {"A": -eye, "B": 0.5 * eye, "C": 0.5 * eye, "F": 0.5 * eye,
            "D": 0.05 * eye, "Q_I": eye, "Q": eye, "Qbar_I": eye, "Qbar": eye,
            "R": eye, "Gamma": eye, "Gammabar": eye}
    vecs = {"eta": np.zeros(n), "etabar": np.zeros(n),
            "s": np.full(n, 0.4), "sbar": np.full(n, 0.4)}
    return {k: v.tolist() for k, v in {**mats, **vecs}.items()}


def test_vectors_without_defaults_are_required_when_n_is_not_2():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "predict", "params": _identity_scaled_params(3)})
    problems = dict(ei.value.problems)
    assert set(problems) == {"z0", "E_bar"}
    assert all("length 3" in r for r in problems.values())
    # E_i falls back to E_bar, so the two vectors are all an n = 3 config needs
    cfg = validate_config({"mode": "predict", "params": _identity_scaled_params(3),
                           "z0": [0.3, 0.5, 0.1], "E_bar": [0.1, -0.1, 0.05]})
    assert cfg.z0.shape == (3,) and cfg.E_i is None


def test_cli_run_reports_missing_vectors_for_n_3(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "predict", "grid_steps": 100,
                             "params": _identity_scaled_params(3)})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error: z0:" in err and "config error: E_bar:" in err
    assert not (tmp_path / "out").exists()


def test_t0_must_be_a_grid_node_for_correction_modes():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "correct", "grid_steps": 200, "t0": 0.5013})
    assert any(f == "t0" for f, _ in ei.value.problems)
    cfg = validate_config({"mode": "correct", "grid_steps": 200, "t0": 0.5})
    assert cfg.t0 == 0.5
    # realtime mode never reads t0
    validate_config({"mode": "realtime", "grid_steps": 200, "t0": 0.5013})


@pytest.mark.parametrize("k_sweep, reason", [
    ([2.0], "at least two distinct values"),
    ([1.0, 1.0], "at least two distinct values"),
    ([1.0, 2.0, 1.0], "must not repeat a value"),
])
def test_evolve_k_sweep_needs_two_distinct_values(k_sweep, reason):
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "evolve", "k_sweep": k_sweep})
    assert [f for f, _ in ei.value.problems] == ["k_sweep"]
    assert reason in ei.value.problems[0][1]


def test_cli_run_rejects_a_one_value_k_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, {"mode": "evolve", "grid_steps": 200, "k_sweep": [2.0]})
    assert main(["run", path, "--out", str(out)]) == 1
    assert ("config error: k_sweep: must hold at least two distinct values"
            in capsys.readouterr().err)
    assert not out.exists()


def test_evolve_headers_stay_distinct_when_k_values_agree_to_six_digits(tmp_path):
    # %g labels both 1.0 and 1.0000001 "1"; those two get their shortest
    # round-trip form, and 2.0 keeps its %g label
    cfg = validate_config({"mode": "evolve", "grid_steps": 200,
                           "k_sweep": [1.0, 1.0000001, 2.0], "output_dir": str(tmp_path)})
    manifest = run_scenario(cfg)
    header, data = _read_csv(tmp_path / "deviations.csv")
    assert header == ["t", "dz_actual_k1_1", "dz_actual_k1_2",
                      "dz_actual_k1.0000001_1", "dz_actual_k1.0000001_2",
                      "dz_actual_k2_1", "dz_actual_k2_2"]
    assert manifest.files["deviations.csv"]["columns"] == header
    assert data.shape[1] == len(header)


@pytest.mark.parametrize("columns", [
    [np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1, -3.0]),
     np.arange(9), np.linspace(-1.0, 1.0, 9) / 3.0],
    [np.arange(-4, 5), np.array([0, 1, -1, 2**53 + 1, 7, 10**17, -5, 3, 2])],
])
def test_write_csv_matches_value_by_value_formatting(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "x.csv"
    scenario._write_csv(str(path), header, columns)
    ref = ",".join(header) + "\n" + "".join(
        ",".join(scenario._FMT % v for v in row) + "\n" for row in np.column_stack(columns))
    assert path.read_bytes() == ref.encode()


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


# ----------------------------------------------------------------- pipelines


def test_predict_mode_with_zero_errors_writes_zero_deviations(tmp_path):
    cfg = validate_config({
        "mode": "predict", "grid_steps": 200,
        "E_bar": [0.0, 0.0], "E_i": [0.0, 0.0],
        "output_dir": str(tmp_path / "out"),
    })
    manifest = run_scenario(cfg)
    header, data = _read_csv(tmp_path / "out" / "deviations.csv")
    assert header[0] == "t"
    np.testing.assert_array_equal(data[:, 1:], 0.0)
    assert "deviations.csv" in manifest.files


def test_evolve_mode_reports_linear_scaling(tmp_path):
    cfg = validate_config({
        "mode": "evolve", "grid_steps": 400,
        "output_dir": str(tmp_path / "out"),
    })
    run_scenario(cfg)
    header, data = _read_csv(tmp_path / "out" / "linearity.csv")
    r2 = data[:, header.index("r_squared")]
    intercept = data[:, header.index("intercept")]
    assert np.all(r2 >= 0.999)
    assert np.max(np.abs(intercept)) < 1e-8


def _mixed_fixture():
    """The non-commuting n = d = 2 fixture of tools/csv_digest.py."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "csv_digest.py")
    spec = importlib.util.spec_from_file_location("csv_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXTURES["mixed"]


def test_evolve_outputs_match_a_loop_of_single_limiting_solves(tmp_path):
    cfg = validate_config(dict(_mixed_fixture(), mode="evolve", grid_steps=200,
                               output_dir=str(tmp_path)))
    run_scenario(cfg)
    bundle = RiccatiBundle.solve(cfg.params, cfg.grid())
    runs = [solve_limiting(bundle, cfg.z0, k * cfg.E_bar, k * cfg.E_bar)
            for k in cfg.k_sweep]
    ref = solve_limiting(bundle, cfg.z0, 0.0 * cfg.E_bar, 0.0 * cfg.E_bar)

    # 201 nodes are written undecimated
    _, data = _read_csv(tmp_path / "deviations.csv")
    want = np.hstack([r.z_A.values - r.z_c.z.values for r in runs])
    assert np.max(np.abs(data[:, 1:] - want)) <= 1e-13 * np.max(np.abs(want))

    header, data = _read_csv(tmp_path / "linearity.csv")
    want = []
    for kind, devs in ((0.0, [r.zbar.z.values - r.z_c.z.values for r in runs]),
                       (1.0, [r.z_A.values - ref.z_A.values for r in runs])):
        for t in _probe_times(cfg.params):
            k = cfg.grid().index_of(t)
            for j in range(cfg.params.n):
                want.append([kind, t, j + 1.0,
                             *_fit_line(cfg.k_sweep, [d[k, j] for d in devs])])
    want = np.array(want)
    assert header == ["kind_actual", "t", "component", "slope", "intercept", "r_squared"]
    np.testing.assert_array_equal(data[:, :3], want[:, :3])
    slope_scale = np.max(np.abs(want[:, 3]))
    assert np.max(np.abs(data[:, 3:5] - want[:, 3:5])) <= 1e-13 * slope_scale
    assert np.max(np.abs(data[:, 5] - want[:, 5])) <= 1e-13


def test_evolve_mode_does_not_use_the_deviation_maps(tmp_path, monkeypatch):
    def no_maps(bundle):
        raise AssertionError("evolve mode must solve every k directly")

    monkeypatch.setattr(scenario, "build_maps", no_maps)
    manifest = run_scenario(validate_config({
        "mode": "evolve", "grid_steps": 200, "output_dir": str(tmp_path)}))
    assert {"linearity.csv", "deviations.csv"} <= set(manifest.files)


@pytest.mark.parametrize("mode", ["predict", "evolve", "correct"])
def test_deterministic_modes_never_solve_the_agent_trajectory(tmp_path, mode, monkeypatch):
    def no_agent_scan(*args, **kwargs):
        raise AssertionError(f"{mode} mode writes no agent trajectory")

    monkeypatch.setattr(limiting, "rk4_affine", no_agent_scan)
    manifest = run_scenario(validate_config({
        "mode": mode, "grid_steps": 200, "output_dir": str(tmp_path)}))
    assert "deviations.csv" in manifest.files


def test_correct_mode_recovers_injected_errors(tmp_path):
    cfg = validate_config({
        "mode": "correct", "grid_steps": 400, "t0": 0.5,
        "E_bar": [0.4, -0.4], "E_i": [0.2, 0.1],
        "output_dir": str(tmp_path / "out"),
    })
    run_scenario(cfg)
    header, data = _read_csv(tmp_path / "out" / "correction_report.csv")
    row = dict(zip(header, data[0]))
    assert row["identifiable"] == 1.0 and row["rank"] == 4.0
    rec = np.array([row["E_bar_recovered1"], row["E_bar_recovered2"]])
    # coarse grid here; the 1e-6 recovery claim is exercised at full
    # resolution in the acceptance suite
    np.testing.assert_allclose(rec, [0.4, -0.4], atol=1e-5)


def test_realtime_mode_writes_prediction_comparison(tmp_path):
    cfg = validate_config({
        "mode": "realtime", "grid_steps": 200, "N": 20, "D": 0.0,
        "E_bar": [0.1, -0.1], "output_dir": str(tmp_path / "out"),
    })
    run_scenario(cfg)
    header, data = _read_csv(tmp_path / "out" / "deviations.csv")
    realized = data[:, 1:3]
    predicted = data[:, 3:5]
    assert np.max(np.abs(realized - predicted)) < 1e-2


@pytest.mark.parametrize("mode", ["predict", "evolve", "correct", "realtime"])
def test_every_mode_runs_with_fewer_controls_than_states(tmp_path, mode, capsys):
    # n = 2, d = 1, non-commuting A and C
    doc = {
        "mode": mode, "grid_steps": 200, "N": 20,
        "params": {"A": [[-1.0, 0.3], [-0.2, -0.8]], "C": [[0.3, -0.1], [0.25, 0.2]],
                   "B": [[0.6], [-0.2]], "F": [[0.2], [0.1]], "R": [[1.0]]},
    }
    manifest = run_scenario(validate_config(dict(doc, output_dir=str(tmp_path / "a"))))
    assert "mf_actual.csv" in manifest.files
    path = _write(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "b")]) == 0


def test_manifest_lists_exactly_the_outputs(tmp_path):
    cfg = validate_config({
        "mode": "predict", "grid_steps": 200,
        "output_dir": str(tmp_path / "out"),
    })
    manifest = run_scenario(cfg)
    on_disk = set(os.listdir(tmp_path / "out"))
    assert on_disk == set(manifest.files) | {"manifest.json"}
    with open(tmp_path / "out" / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["config_hash"] == manifest.config_hash
    assert set(doc["files"]) == set(manifest.files)
    for name, spec in doc["files"].items():
        if name.endswith(".csv"):
            header, data = _read_csv(tmp_path / "out" / name)
            assert spec["columns"] == header
            assert spec["rows"] == data.shape[0]


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    doc = {"mode": "predict", "grid_steps": 200}
    run_scenario(validate_config(dict(doc, output_dir=out1)))
    run_scenario(validate_config(dict(doc, output_dir=out2)))
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            with open(os.path.join(out1, name), "rb") as fa, \
                    open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read(), name


# ------------------------------------------------------- solves kept across runs


def _refuse(*args, **kwargs):
    raise AssertionError("solved again on a rerun")


@pytest.mark.parametrize("mode", ["predict", "evolve", "correct", "realtime"])
def test_a_rerun_reads_the_kept_solves_and_writes_the_same_bytes(tmp_path, monkeypatch,
                                                                  mode):
    doc = {"mode": mode, "grid_steps": 200, "N": 20}
    run_scenario(validate_config(dict(doc, output_dir=str(tmp_path / "a"))))
    monkeypatch.setattr(RiccatiBundle, "solve", classmethod(_refuse))
    monkeypatch.setattr(scenario, "build_maps", _refuse)
    monkeypatch.setattr(scenario, "build_kernels", _refuse)
    run_scenario(validate_config(dict(doc, output_dir=str(tmp_path / "b"))))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_changing_one_entry_of_A_is_a_miss():
    params = p6_params()
    grid = params.default_grid(50)
    A = params.A.copy()
    A[0, 1] = 1e-12
    kept = scenario._solved(params, grid)
    assert scenario._solved(params.with_(), grid) is kept
    other = scenario._solved(params.with_(A=A), grid)
    assert other is not kept
    assert np.array_equal(other.bundle.params.A, A)
    assert scenario._solved(params, params.default_grid(60)) is not kept


def test_one_off_sets_do_not_evict_a_set_with_hits():
    params = p6_params()
    grid = params.default_grid(50)
    kept = scenario._solved(params, grid)
    scenario._solved(params, grid)
    for eps in (0.01, 0.02, 0.03):
        last = scenario._solved(params.with_(A=params.A + eps), grid)
    # each one-off evicted the one before it, the oldest of no hits
    assert list(scenario._solved_cache.values()) == [kept, last]
    assert scenario._solved(params, grid) is kept


def test_a_failed_solve_is_not_kept(tmp_path):
    # Q_I + Q - Q*Gamma = -8 I: P0 escapes to infinity
    cfg = validate_config({"mode": "predict", "grid_steps": 200,
                           "params": {"Gamma": [[10.0, 0.0], [0.0, 10.0]]},
                           "output_dir": str(tmp_path)})
    for _ in range(2):
        with pytest.raises(FiniteEscapeError, match="P0"):
            run_scenario(cfg)
    assert not scenario._solved_cache


@pytest.mark.parametrize("mode", ["predict", "evolve", "correct", "realtime"])
def test_no_mode_solves_P2_or_G1(tmp_path, monkeypatch, mode):
    # every mode reads P0 - P1 and G; only the "p2" prediction route and the
    # identity checks read P2 and G1
    calls = []
    for name in ("solve_P2", "solve_G1"):
        def spy(*args, _solve=getattr(riccati, name), _name=name):
            calls.append(_name)
            return _solve(*args)
        monkeypatch.setattr(riccati, name, spy)
    run_scenario(validate_config({"mode": mode, "grid_steps": 200, "N": 20,
                                  "output_dir": str(tmp_path)}))
    assert calls == []


@pytest.mark.parametrize("mode", ["predict", "correct"])
def test_deviation_modes_solve_only_the_Phi1_transition(tmp_path, monkeypatch, mode):
    # the maps read Phi1 from the bundle; PhiZ is the realtime kernels' alone
    generators, transition = [], ode.StepMaps.transition.func

    def spy(steps):
        generators.append(steps.H)
        return transition(steps)

    monkeypatch.setattr(ode.StepMaps, "transition", property(spy))
    cfg = validate_config({"mode": mode, "grid_steps": 200, "output_dir": str(tmp_path)})
    run_scenario(cfg)
    bundle = scenario._solved(cfg.params, cfg.grid()).bundle
    assert len(generators) == 1
    np.testing.assert_array_equal(
        generators[0], riccati.mf_generator(cfg.params, bundle.P0.values))


@pytest.mark.parametrize("mode", ["predict", "evolve", "correct"])
def test_a_repeated_parameter_set_builds_no_step_maps(tmp_path, monkeypatch, mode):
    # the second request reads the kept bundle and maps, whose step maps
    # serve every solve of the request
    cfg = validate_config({"mode": mode, "grid_steps": 200, "output_dir": str(tmp_path)})
    run_scenario(cfg)
    built, init = [], ode.StepMaps.__init__

    def spy_init(steps, *args, **kwargs):
        built.append("StepMaps")
        init(steps, *args, **kwargs)

    def no_rk4_affine(*args, **kwargs):
        raise AssertionError(f"{mode} mode solved with rk4_affine on a repeated parameter set")

    monkeypatch.setattr(ode.StepMaps, "__init__", spy_init)
    for module in (ode, riccati, deviations, limiting):
        monkeypatch.setattr(module, "rk4_affine", no_rk4_affine)
    run_scenario(cfg)
    assert built == []


def test_correct_mode_solves_no_post_correction_offset(tmp_path, monkeypatch):
    def no_offset(*args):
        raise AssertionError("correct mode writes no post-correction offset")

    monkeypatch.setattr(correction, "solve_tracking_offset", no_offset)
    manifest = run_scenario(validate_config({
        "mode": "correct", "grid_steps": 200, "output_dir": str(tmp_path)}))
    assert "mf_actual.csv" in manifest.files


def test_kept_paths_are_read_only():
    params = p6_params()
    entry = scenario._solved(params, params.default_grid(50))
    bundle, maps, kernels = entry.bundle, entry.maps, entry.kernels
    arrays = [getattr(bundle, name).values for name in ("P0", "P1", "P2", "G", "G1",
                                                        "Phi1", "PhiZ")]
    arrays += [getattr(maps, name).values for name in ("Mg", "Mz", "PhiX", "Mx1", "Mx2")]
    arrays += [getattr(kernels, name) for name in ("PhiZ_inv", "Phi1_inv", "V", "Mig_diag",
                                                   "M0g_diag")]
    arrays += list(bundle.tracking_drive)
    for steps in (bundle.mf0_steps, bundle.mf1_steps, bundle.tracking_steps):
        arrays += steps.levels + [steps.W0, steps.W1, steps.transition]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] += 1.0


def test_config_hash_tracks_content():
    from mfg_errsim.scenario import _config_hash

    a = validate_config({"mode": "predict"})
    b = validate_config({"mode": "predict", "seed": 43})
    assert _config_hash(a) != _config_hash(b)
    assert _config_hash(a) == _config_hash(validate_config({"mode": "predict"}))


# ----------------------------------------------------------------------- CLI


def test_cli_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "predict"})
    assert main(["validate", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_reports_each_problem(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "warp", "junk": 1})
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "mode" in err and "junk" in err


def test_cli_missing_config_file(capsys):
    assert main(["validate", "/no/such/config.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_with_overrides(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = _write(tmp_path, {"mode": "predict", "grid_steps": 2000})
    assert main(["run", path, "--out", out, "--steps", "200", "--seed", "7"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        doc = json.load(fh)
    assert doc["grid_steps"] == 200 and doc["seed"] == 7


@pytest.mark.parametrize("doc, overrides, field", [
    ({"mode": "correct"}, ["--steps", "7"], "t0"),
    ({"mode": "predict"}, ["--steps", "0"], "grid_steps"),
    ({"mode": "evolve", "grid_steps": 100}, [], "grid_steps"),
    # correction restarts the game at t0 < T and samples 8 nodes in (0, t0]
    ({"mode": "correct", "grid_steps": 200, "t0": 2.0}, [], "t0"),
    ({"mode": "correct", "grid_steps": 200, "t0": 0.01}, [], "t0"),
    ({"mode": "correct", "grid_steps": 4, "t0": 1.0}, [], "t0"),
])
def test_cli_run_validates_the_grid_with_its_overrides(tmp_path, capsys, doc,
                                                       overrides, field):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)] + overrides) == 1
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_probe_times_must_be_grid_nodes():
    with pytest.raises(ConfigError) as ei:
        validate_config({"mode": "evolve", "grid_steps": 100})
    assert [f for f, _ in ei.value.problems] == ["grid_steps"]
    assert "t = 0.25" in ei.value.problems[0][1]
    # probe times at or beyond T are not used, so need not be nodes
    validate_config({"mode": "evolve", "grid_steps": 2, "params": {"T": 0.5}})


_NAN, _INF = float("nan"), float("inf")
_HUGE = 10 ** 400  # a JSON integer past the float range


@pytest.mark.parametrize("doc, code, prefix", [
    ({"mode": "predict", "params": {"A": [[_NAN, 0.0], [0.0, -1.0]]}}, 1,
     "config error: params:"),
    ({"mode": "predict", "params": {"A": [["x", 0.0], [0.0, -1.0]]}}, 1,
     "config error: params.A:"),
    ({"mode": "predict", "params": {"T": _INF}}, 1, "config error: params.T:"),
    ({"mode": "predict", "params": {"T": _HUGE}}, 1, "config error: params.T:"),
    ({"mode": "predict", "params": {"B": [[1e200, 0.0], [0.0, 1.0]]}}, 1,
     "config error: params: BRB overflows"),
    ({"mode": "predict", "params": {"T": 1e300}}, 2, "runtime error:"),
    ({"mode": "predict", "params": {"T": 1e7}}, 2, "runtime error: P1:"),
    ({"mode": "correct", "t0": _INF}, 1, "config error: t0:"),
    ({"mode": "correct", "t0": _HUGE}, 1, "config error: t0:"),
    ({"mode": "predict", "z0": [_NAN, 0.0]}, 1, "config error: z0:"),
    ({"mode": "predict", "E_bar": [_NAN, 0.0]}, 1, "config error: E_bar:"),
    ({"mode": "predict", "E_i": [0.0, _NAN]}, 1, "config error: E_i:"),
    ({"mode": "evolve", "k_sweep": [1.0, _NAN, 2.0]}, 1, "config error: k_sweep:"),
    ({"mode": "evolve", "k_sweep": [1, _HUGE]}, 1, "config error: k_sweep:"),
    ({"mode": "evolve", "grid_steps": 200, "k_sweep": [1, 1e300]}, 2,
     "runtime error: linearity.csv: column r_squared"),
    ({"mode": "realtime", "N": 5, "D": _INF}, 1, "config error: D:"),
    ({"mode": "realtime", "N": 5, "D": _HUGE}, 1, "config error: D:"),
], ids=["A_nan", "A_text", "T_inf", "T_huge_int", "B_overflow", "T_overflow",
        "T_expm_overflow", "t0_inf", "t0_huge_int", "z0_nan", "E_bar_nan", "E_i_nan",
        "k_sweep_nan", "k_sweep_huge_int", "k_sweep_overflow", "D_inf", "D_huge_int"])
def test_cli_run_reports_non_finite_and_overflowing_values(tmp_path, capsys, doc,
                                                           code, prefix):
    # the clean error comes without a numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert prefix in err and "Traceback" not in err


def test_a_linear_solve_past_rk4_stability_is_a_blowup_not_an_escape(tmp_path, capsys):
    # dt*rho of the linear G solve is about 10 at 200 steps and 1 at 2000
    doc = {"mode": "predict", "grid_steps": 200, "params": {"A": [[1000, 0], [0, 1000]]}}
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert "runtime error: G blew up" in err and "escaped" not in err
    assert "grid_steps=200" in err and "dt*rho(H) = 10.01" in err and "2.785" in err
    doc["grid_steps"] = 2000
    assert main(["run", _write(tmp_path, doc), "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("steps", [150, 450, 2001])
def test_series_files_hold_the_solve_at_every_stride_node(tmp_path, steps):
    cfg = validate_config({"mode": "predict", "grid_steps": steps,
                           "output_dir": str(tmp_path)})
    manifest = run_scenario(cfg)
    grid = cfg.grid()
    run = solve_limiting(RiccatiBundle.solve(cfg.params, grid), cfg.z0, cfg.E_bar,
                         cfg.E_bar)
    nodes = list(range(0, steps + 1, max(1, steps // 200)))
    if nodes[-1] != steps:
        nodes.append(steps)
    want = {"mf_predicted.csv": [run.z_c.z.values, run.mf_i.z.values],
            "mf_actual.csv": [run.z_c.z.values, run.z_A.values]}
    for name, arrays in want.items():
        _, data = _read_csv(tmp_path / name)
        assert data.shape[0] == manifest.files[name]["rows"] == len(nodes)
        np.testing.assert_array_equal(data[:, 0], grid.times[nodes])
        np.testing.assert_array_equal(data[:, 1:], np.hstack(arrays)[nodes])


def test_scenario_config_grid_roundtrip():
    cfg = validate_config({"mode": "predict", "grid_steps": 123})
    assert isinstance(cfg, ScenarioConfig)
    g = cfg.grid()
    assert g.steps == 123 and g.t_end == cfg.params.T
