import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bohmlab import harness
from bohmlab.cli import build_parser, main
from bohmlab.errors import ConfigurationError, HorizonError
from bohmlab.harness import DEFAULTS, parse_config, resolve_out_dir, run
from bohmlab.qgrid import SpectralOperator, build_hamiltonian

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
        again = parse_config(json.dumps(cfg.normalized()))
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

    def test_gaussian_state_defaults(self):
        assert parse_config("{}").state == {
            "kind": "gaussian", "center": 0.0, "width": 1.0, "momentum": 0.0}

    @pytest.mark.parametrize("state, unknown", [
        ({"kind": "gaussian", "index": 0}, "index"),
        ({"kind": "eigenstate", "center": 0.0}, "center"),
        ({"kind": "superposition", "components": [
            {"center": 0.0, "width": 1.0, "weight": 1.0}], "width": 1.0},
         "width"),
    ], ids=["gaussian", "eigenstate", "superposition"])
    def test_unknown_state_key_rejected(self, state, unknown):
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps({"state": state}))
        assert err.value.violations == [
            f"state({state['kind']}): unknown key {unknown!r}"]

    def test_superposition_needs_components(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"state": {"kind": "superposition"}}')
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith("state.components:")

    def test_harmonic_potential_uses_units_mass(self):
        # V = m omega^2 x^2 / 2 with the configured m: the ground energy is
        # hbar omega / 2 whatever the mass (0.3536 if V took m = 1)
        cfg = parse_config(json.dumps({
            "units": {"mass": 2.0},
            "grid": {"n": 256, "x_min": -12.0, "x_max": 12.0},
            "potential": {"kind": "harmonic", "omega": 1.0}}))
        h = build_hamiltonian(cfg.build_grid(), cfg.build_potential(), mass=2.0)
        assert h.eigenvalues()[0] == pytest.approx(0.5, abs=1e-9)

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
        run(cfg, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories.csv").read_bytes()
        assert a == b

    def test_threads_other_than_one_rejected(self, tmp_path):
        # trajectories are integrated serially; threads=1 is all run takes
        cfg = parse_config(json.dumps(FAST))
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ConfigurationError, match="threads must be 1"):
            run(cfg, out_dir=str(out), threads=2)
        assert list(out.iterdir()) == []

    def test_failed_run_leaves_nothing(self, tmp_path):
        # packet never leaves the window within the horizon
        bad = {**FAST, "task": {"name": "dwell", "region": [-5.0, 5.0],
                                "horizon": 0.5}}
        cfg = parse_config(json.dumps(bad))
        with pytest.raises(Exception):
            run(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_short_horizon_raises_before_trajectories(self, tmp_path,
                                                      monkeypatch):
        # the horizon is judged on |psi|^2 before any RK4 work is done
        def refuse(*args, **kwargs):
            raise AssertionError("trajectories integrated")

        monkeypatch.setattr(harness, "integrate_trajectories", refuse)
        cfg = parse_config(json.dumps({**FAST, "task": {
            "name": "dwell", "region": [-5.0, 5.0], "horizon": 0.5}}))
        with pytest.raises(HorizonError, match="probability mass"):
            run(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_stuck_trajectory_reported(self, tmp_path, monkeypatch):
        # a trajectory held inside the region past the horizon is counted
        # and keeps its time up to the horizon in the mean
        integrate = harness.integrate_trajectories

        def hold_first(*args, **kwargs):
            ens = integrate(*args, **kwargs)
            ens.positions[:, 0] = 0.0
            return ens

        monkeypatch.setattr(harness, "integrate_trajectories", hold_first)
        cfg = parse_config(json.dumps({**FAST, "state": {
            "kind": "gaussian", "center": -8.0, "momentum": 5.0},
            "task": {"name": "dwell", "horizon": 4.0}}))
        summary = run(cfg, out_dir=str(tmp_path)).summary
        assert summary["stuck"] == 1
        taus = np.loadtxt(tmp_path / "dwell_times.csv", delimiter=",",
                          skiprows=1)[:, 2]
        assert taus[0] == pytest.approx(4.0)
        assert summary["trajectory_mean"] == pytest.approx(taus.mean())
        dwell = json.loads((tmp_path / "dwell.json").read_text())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert dwell["stuck"] == manifest["summary"]["stuck"] == 1

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

    def test_dwell_task_propagates_once(self, tmp_path, monkeypatch):
        # one forward sweep, shared by the trajectories, the density and the
        # dwell operator, one backward sweep and one per-trajectory dwell pass
        from bohmlab import qgrid, weakval
        steps = {"forward": 0, "backward": 0}
        step = qgrid._SplitOperatorStepper.step

        def counting_step(stepper, amp, t):
            steps["forward" if stepper.dt > 0 else "backward"] += 1
            return step(stepper, amp, t)

        passes = []
        dwell_times = harness.per_trajectory_dwell_times

        def counting_dwell_times(*args):
            passes.append(args)
            return dwell_times(*args)

        monkeypatch.setattr(qgrid._SplitOperatorStepper, "step", counting_step)
        monkeypatch.setattr(harness, "per_trajectory_dwell_times",
                            counting_dwell_times)
        cfg = parse_config(json.dumps({**FAST, "state": {
            "kind": "gaussian", "center": -8.0, "momentum": 5.0},
            "task": {"name": "dwell", "horizon": 4.0}}))
        summary = run(cfg, out_dir=str(tmp_path)).summary
        assert steps == {"forward": 400, "backward": 400}
        assert len(passes) == 1
        assert not hasattr(weakval, "evolve_store")
        assert summary["weak_value"] == pytest.approx(summary["density"],
                                                      rel=1e-6)

    @pytest.mark.parametrize("state", [
        {"kind": "eigenstate", "index": 1},
        {"kind": "superposition", "components": [
            {"center": -3.0, "width": 1.0, "weight": 0.25},
            {"center": 3.0, "width": 1.5, "momentum": 1.0, "weight": 0.75}]},
    ], ids=["eigenstate", "superposition"])
    def test_propagate_other_states(self, tmp_path, state):
        cfg = parse_config(json.dumps({
            **FAST, "state": state,
            "potential": {"kind": "harmonic", "omega": 1.0}}))
        summary = run(cfg, out_dir=str(tmp_path)).summary
        assert summary["final_norm"] == pytest.approx(1.0)

    @pytest.mark.parametrize("task", ["psd", "work"])
    def test_wrapped_packet_reports_truncated(self, tmp_path, task):
        # a k = 5 packet on [-10, 10] runs into the edge within the duration,
        # and every trajectory freezes there
        cfg = parse_config(json.dumps({
            "grid": {"n": 256, "x_min": -10.0, "x_max": 10.0},
            "potential": {"kind": "free"},
            "state": {"kind": "gaussian", "momentum": 5.0},
            "ensemble": {"n": 1000, "seed": 3},
            "task": {"name": task, "duration": 4.0}}))
        assert run(cfg, out_dir=str(tmp_path)).summary["truncated"] == 1000

    @pytest.mark.parametrize("task", ["trajectories", "work", "dwell", "psd"])
    def test_one_rk4_step_per_frame(self, tmp_path, monkeypatch, task):
        # every Bohmian task integrates once, through the one ensemble
        # helper, at one RK4 substep, and reports the ensemble's health
        integrate = harness.integrate_trajectories
        substeps = []

        def spy(*args, **kwargs):
            call = inspect.signature(integrate).bind(*args, **kwargs)
            call.apply_defaults()
            substeps.append(call.arguments["substeps"])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(harness, "integrate_trajectories", spy)
        cfg = parse_config(json.dumps({**FAST, "state": {
            "kind": "gaussian", "center": -8.0, "momentum": 5.0},
            "task": {"name": task}}))
        manifest = run(cfg, out_dir=str(tmp_path))
        assert substeps == [1]
        assert manifest.summary["truncated"] == 0
        if task == "dwell":
            dwell = json.loads((tmp_path / "dwell.json").read_text())
            assert dwell["truncated"] == 0

    def test_csv_full_precision(self, tmp_path):
        cfg = parse_config(json.dumps(FAST))
        run(cfg, out_dir=str(tmp_path))
        line = (tmp_path / "density.csv").read_text().splitlines()[1]
        first = line.split(",")[0]
        assert "e" in first and len(first.split(".")[1]) >= 16


def per_cell_csv(path, header, rows):
    """Oracle: the CSV writer that formatted every cell on its own."""
    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return str(bool(x)).lower()
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return f"{float(x):.16e}"

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [
        np.column_stack([np.arange(5), [0.1, -0.0, np.nan, np.inf, -1e-300],
                         [1e300, 2.5, -np.inf, 5e-324, 1 / 3]]),
        [(0, 1.5, np.float64(-2.0), True, np.bool_(False)),
         (np.int64(7), -0.0, np.float64(np.nan), False, np.bool_(True))],
        [(np.float64(0.05), 0.9999999999999999), (np.float64(0.1), 1.0)],
        np.random.default_rng(1).normal(size=(5, 20_000)),
        np.empty((0, 3)),
    ], ids=["float-array", "mixed-tuples", "float-tuples", "wide", "empty"])
    def test_bytes_match_per_cell_writer(self, tmp_path, rows):
        header = [f"c{j}" for j in range(len(rows[0]) if len(rows) else 3)]
        harness._write_csv(tmp_path / "bulk.csv", header, rows)
        per_cell_csv(tmp_path / "cells.csv", header, rows)
        assert ((tmp_path / "bulk.csv").read_bytes()
                == (tmp_path / "cells.csv").read_bytes())


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

    def test_one_task_list(self):
        # the subcommands, the pipelines and the task defaults share one list
        assert harness.TASKS.keys() == harness._TASK_DEFAULTS.keys()
        sub = next(a for a in build_parser()._actions if a.dest == "task")
        assert list(sub.choices) == list(harness.TASKS)

    def test_task_mismatch_is_config_error(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["work", "--config", path]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["propagate", "--config", "/no/such/file.json"]) == 2

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {"n": 4}}')
        assert main(["propagate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("task, extra, violation", [
        ("propagate", {"grid": {"x_max": "abc"}}, "grid.x_max: not a number"),
        ("dwell", {"task": {"region": [1]}}, "task.region: must be a pair"),
        ("measure", {"task": {"coupling": "x"}}, "task.coupling: not a number"),
        ("dwell", {"task": {"substeps": 1}},
         "task(dwell): unknown key 'substeps'"),
        ("trajectories", {"task": {"substeps": 1}},
         "task(trajectories): unknown key 'substeps'"),
        ("propagate", {"potential": {"kind": "barrier"}},
         "potential: barrier needs right > left"),
        ("propagate", {"potential": {"kind": "harmonic", "omega": 0.0}},
         "potential: harmonic potential needs omega > 0"),
        ("propagate", {"state": {"kind": "eigenstate", "index": 1.5}},
         "state.index: must be an integer"),
    ], ids=["x_max", "region", "coupling", "dwell-substeps",
            "trajectories-substeps", "barrier", "omega", "index"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, task, extra,
                                      violation):
        path = self.write_config(tmp_path, extra)
        assert main([task, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"\n  {violation}" in capsys.readouterr().err

    def test_retired_method_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"propagator": {
            "dt": 0.01, "method": "crank-nicolson"}})
        assert main(["propagate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "split-operator" in err and "exact" in err

    def test_numeric_error_exit_three(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"task": {
            "name": "dwell", "region": [-5.0, 5.0], "horizon": 0.5}})
        out = tmp_path / "out"
        assert main(["dwell", "--config", path, "--out", str(out)]) == 3
        assert "HorizonError: probability mass" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unresolvable_ancilla_exit_three(self, tmp_path, capsys):
        # the measure-mc benchmark scenario with a unit-coupled ancilla of
        # width 2e-4: the kept S basis reaches s = 2.75, so spacing width/8
        # needs 220,041 points, more than the 2^17 an ancilla grid may have
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "grid": {"x_min": -40.0, "x_max": 40.0, "n": 128},
            "state": {"kind": "gaussian", "center": 0.0, "width": 2.0,
                      "momentum": 1.0},
            "task": {"name": "measure", "mode": "monte_carlo", "coupling": 1.0,
                     "width": 2e-4, "n_experiments": 200_000}}))
        out = tmp_path / "out"
        assert main(["measure", "--config", str(path), "--out", str(out)]) == 3
        assert "GridRangeError" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_threads_flag_exit_two(self, tmp_path, monkeypatch, capsys):
        # the flag is gone, so argparse rejects it before anything runs
        monkeypatch.setenv("BOHMLAB_OUT", str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_jsonl_lines_are_json_dumps_text(self, tmp_path):
        # more experiments than one Monte Carlo block, so the log is written
        # by several callbacks
        cfg = parse_config(json.dumps({
            "grid": {"n": 64, "x_min": -20.0, "x_max": 20.0},
            "state": {"kind": "gaussian", "width": 2.0, "momentum": 1.0},
            "ensemble": {"seed": 4},
            "task": {"name": "measure", "coupling": 0.05,
                     "mode": "monte_carlo", "n_experiments": 9000}}))
        run(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "experiments.jsonl") as fh:
            lines = fh.readlines()
        assert len(lines) == 9000
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert list(rec) == ["i", "y_k", "y_g", "post_selected", "weight"]
            assert rec["i"] == i
            assert json.dumps(rec) + "\n" == line


COLD_START = """
import json, sys
import bohmlab.cli, bohmlab.validation
from bohmlab.harness import parse_config, run
cfg = parse_config(json.dumps({
    "grid": {"n": 64, "x_min": -20.0, "x_max": 20.0},
    "state": {"kind": "gaussian", "width": 2.0, "momentum": 1.0},
    "ensemble": {"seed": 4},
    "task": {"name": "measure", "coupling": 0.05, "mode": "monte_carlo",
             "n_experiments": 500}}))
run(cfg, out_dir=sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy"
                        or m.startswith("concurrent.futures"))))
"""


def test_cli_cold_start_imports_no_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded as an oracle;
    # the serial integrator needs no thread pool either
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert (tmp_path / "experiments.jsonl").exists()
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("workload", ["dwell-desk", "psd-large", "measure-mc"])
def test_trace_mode_finds_every_layer(tmp_path, workload):
    # the benchmark's traced run wraps the layer functions bohmlab.harness
    # imports (and the Monte Carlo log_callback) and binds some of their
    # arguments by name, so renaming one of them fails this test instead of
    # the benchmark
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "perfbench/tracer.py", workload, "11",
         str(tmp_path / "out"), str(tmp_path / "spans.jsonl")],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1])["problems"] == []


CLI = "import sys; from bohmlab.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cli(args):
    """The bohmlab CLI in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", CLI, *args], env=env,
                          capture_output=True, text=True)


def test_cli_substeps_key_exit_two(tmp_path):
    # one RK4 step per frame is the only path; the former key is unknown
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**FAST, "task": {"name": "trajectories",
                                                 "substeps": 2}}))
    out = tmp_path / "out"
    done = run_cli(["trajectories", "--config", str(path), "--out", str(out)])
    assert done.returncode == 2
    assert "task(trajectories): unknown key 'substeps'" in done.stderr
    assert not out.exists()

