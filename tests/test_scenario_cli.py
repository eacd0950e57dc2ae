"""Scenario configs, batch pipelines, output files, and the CLI."""

import json
import os

import numpy as np
import pytest

from mfg_errsim.cli import main
from mfg_errsim.errors import ConfigError
from mfg_errsim.scenario import (
    ScenarioConfig,
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


def test_cli_bench_size_parsing(capsys):
    assert main(["bench", "--sizes", "10xbad"]) == 1
    assert "--sizes" in capsys.readouterr().err


def test_scenario_config_grid_roundtrip():
    cfg = validate_config({"mode": "predict", "grid_steps": 123})
    assert isinstance(cfg, ScenarioConfig)
    g = cfg.grid()
    assert g.steps == 123 and g.t_end == cfg.params.T
