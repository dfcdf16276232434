import json
import os
import warnings

import pytest

from bohmlab.cli import main
from bohmlab.errors import ConfigurationError
from bohmlab.harness import DEFAULTS, parse_config, resolve_out_dir, run
from bohmlab.qgrid import SpectralOperator

FAST = {
    "grid": {"n": 128, "x_min": -20.0, "x_max": 20.0},
    "ensemble": {"n": 25, "seed": 7},
    "propagator": {"dt": 0.01, "steps_per_output": 10},
    "task": {"name": "propagate", "duration": 0.5},
}


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config("{}")
        assert cfg.units == DEFAULTS["units"]
        assert cfg.task["name"] == "propagate"
        assert "duration" in cfg.task

    def test_round_trip_identity(self):
        cfg = parse_config(json.dumps(FAST))
        again = parse_config(cfg.to_json())
        assert again.normalized() == cfg.normalized()
        assert again.config_hash == cfg.config_hash

    def test_hash_independent_of_key_order(self):
        a = parse_config('{"grid": {"n": 128, "x_min": -20.0, "x_max": 20.0}}')
        b = parse_config('{"grid": {"x_max": 20.0, "n": 128, "x_min": -20.0}}')
        assert a.config_hash == b.config_hash

    def test_not_json(self):
        with pytest.raises(ConfigurationError):
            parse_config("grid: {n: 128}")

    def test_all_violations_reported(self):
        bad = {"grid": {"n": 4}, "state": {"kind": "gaussian", "width": -1.0},
               "propagator": {"dt": -0.1}}
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(bad))
        assert len(err.value.violations) == 3
        assert any("state.width" in v for v in err.value.violations)

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"grid": {"x_mn": -10.0}}')
        assert "x_min" in str(err.value)

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"task": {"name": "propogate"}}')
        assert "propagate" in str(err.value)

    def test_seed_streams_deterministic(self):
        cfg = parse_config(json.dumps(FAST))
        assert cfg.subsystem_seeds() == cfg.subsystem_seeds()
        other = parse_config(json.dumps({**FAST, "ensemble": {"seed": 8}}))
        assert cfg.subsystem_seeds() != other.subsystem_seeds()


class TestRun:
    def test_propagate_outputs(self, tmp_path):
        cfg = parse_config(json.dumps(FAST))
        manifest = run(cfg, out_dir=str(tmp_path))
        for name in manifest.outputs:
            assert (tmp_path / name).exists()
        assert manifest.config_hash == cfg.config_hash
        with open(tmp_path / "manifest.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["summary"]["final_norm"] == pytest.approx(1.0)

    def test_determinism(self, tmp_path):
        cfg = parse_config(json.dumps({**FAST, "task": {
            "name": "trajectories", "duration": 0.5}}))
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"), threads=4)
        a = (tmp_path / "a" / "trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories.csv").read_bytes()
        assert a == b

    def test_failed_run_leaves_nothing(self, tmp_path):
        # packet never leaves the window within the horizon
        bad = {**FAST, "task": {"name": "dwell", "region": [-5.0, 5.0],
                                "horizon": 0.5}}
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(Exception):
            run(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("doc", [
        {"grid": {"n": 2048}, "state": {"kind": "gaussian", "width": 0.5},
         "task": {"name": "weakvalue"}},
        {"grid": {"x_min": -60.0, "x_max": 60.0, "n": 1024},
         "state": {"kind": "gaussian", "center": -8.0, "momentum": 5.0},
         "ensemble": {"n": 20}, "task": {"name": "dwell"}},
    ], ids=["weakvalue", "dwell"])
    def test_subnormal_tails_raise_no_warning(self, tmp_path, doc):
        # the packet tails reach subnormal amplitudes, so dividing by psi
        # overflows there; those points are nodes and come out as NaN
        cfg = parse_config(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(cfg, out_dir=str(tmp_path))

    def test_dwell_task_builds_no_dense_matrix(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("dense n x n matrix built")

        monkeypatch.setattr(SpectralOperator, "dense", refuse)
        cfg = parse_config(json.dumps({
            "state": {"kind": "gaussian", "center": -8.0, "momentum": 5.0},
            "ensemble": {"n": 50}, "task": {"name": "dwell"}}))
        summary = run(cfg, out_dir=str(tmp_path)).summary
        assert summary["weak_value"] == pytest.approx(summary["density"],
                                                      rel=1e-6)

    def test_csv_full_precision(self, tmp_path):
        cfg = parse_config(json.dumps(FAST))
        run(cfg, out_dir=str(tmp_path))
        line = (tmp_path / "density.csv").read_text().splitlines()[1]
        first = line.split(",")[0]
        assert "e" in first and len(first.split(".")[1]) >= 16


class TestCli:
    def write_config(self, tmp_path, extra=None):
        cfg = {**FAST, **(extra or {})}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_propagate_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = main(["propagate", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert (tmp_path / "out" / "density.csv").exists()
        assert printed["summary"]["n_frames"] == 6

    def test_task_mismatch_is_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["work", "--config", path]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["propagate", "--config", "/no/such/file.json"]) == 2

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {"n": 4}}')
        assert main(["propagate", "--config", str(path)]) == 2

    def test_retired_method_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"propagator": {
            "dt": 0.01, "method": "crank-nicolson"}})
        assert main(["propagate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "split-operator" in err and "exact" in err

    def test_numeric_error_exit_three(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"task": {
            "name": "dwell", "region": [-5.0, 5.0], "horizon": 0.5}})
        assert main(["dwell", "--config", path,
                     "--out", str(tmp_path / "out")]) == 3

    def test_seed_override(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        main(["propagate", "--config", path, "--seed", "99",
              "--out", str(tmp_path / "out")])
        printed = json.loads(capsys.readouterr().out)
        assert printed["seed"] == 99

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOHMLAB_OUT", str(tmp_path / "env-out"))
        assert resolve_out_dir() == str(tmp_path / "env-out")
        assert resolve_out_dir("explicit") == "explicit"  # flag wins
        path = self.write_config(tmp_path)
        assert main(["propagate", "--config", path]) == 0
        assert (tmp_path / "env-out" / "density.csv").exists()

    def test_defaults_without_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOHMLAB_OUT", str(tmp_path / "out"))
        assert main(["propagate"]) == 0
        assert (tmp_path / "out" / "norms.csv").exists()


class TestMeasureTask:
    def test_jsonl_log_and_summary(self, tmp_path):
        cfg = parse_config(json.dumps({
            "grid": {"n": 128, "x_min": -40.0, "x_max": 40.0},
            "state": {"kind": "gaussian", "center": -5.0, "width": 2.5,
                      "momentum": 1.0},
            "ensemble": {"n": 10, "seed": 3},
            "task": {"name": "measure", "duration": 1.0, "coupling": 0.05,
                     "width": 1.0, "mode": "monte_carlo",
                     "n_experiments": 2000}}))
        manifest = run(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "experiments.jsonl").read_text().splitlines()
        assert len(lines) == 2000
        rec = json.loads(lines[0])
        assert set(rec) == {"i", "y_k", "y_g", "post_selected", "weight"}
        n_sel = sum(json.loads(l)["post_selected"] for l in lines)
        assert n_sel == manifest.summary["n_selected"]
        header = (tmp_path / "joint_distribution.csv").read_text().splitlines()[0]
        assert header.startswith("y_k,g=")
