import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bohmlab import blas, bohm, evolve_store, harness, intrinsics, measure
from bohmlab.bohm import integrate_trajectories, sample_initial_positions
from bohmlab.cli import build_parser, main
from bohmlab.errors import (ConfigurationError, EmptyEnsembleError,
                            HorizonError, InsufficientStatisticsError,
                            LagError)
from bohmlab.harness import DEFAULTS, parse_config, resolve_out_dir, run
from bohmlab.intrinsics import (dwell_time_density, ensemble_currents,
                                per_trajectory_dwell_times, psd)
from bohmlab.qgrid import SpectralOperator, build_hamiltonian, window_weights
from bohmlab.weakval import dwell_weak_value

FAST = {
    "grid": {"n": 128, "x_min": -20.0, "x_max": 20.0},
    "ensemble": {"n": 25, "seed": 7},
    "propagator": {"dt": 0.01, "steps_per_output": 10},
    "task": {"name": "propagate", "duration": 0.5},
}
# a k = 5 packet on [-10, 10] runs into the edge within a duration of 4, and
# every trajectory freezes there
WRAPPED = {
    "grid": {"n": 256, "x_min": -10.0, "x_max": 10.0},
    "potential": {"kind": "free"},
    "state": {"kind": "gaussian", "momentum": 5.0},
    "ensemble": {"n": 1000, "seed": 3},
}

# one config at FAST scale for each task that takes a seed
SAME_SEED = [
    FAST,
    {**FAST, "task": {"name": "trajectories", "duration": 0.5}},
    {**FAST, "task": {"name": "weakvalue", "duration": 0.5}},
    {**FAST, "task": {"name": "work", "duration": 0.5}},
    {**FAST, "state": {"kind": "gaussian", "center": -8.0, "momentum": 5.0},
     "task": {"name": "dwell", "horizon": 4.0}},
    {**FAST, "task": {"name": "psd", "duration": 1.0, "tau_max": 0.3}},
    {**FAST, "task": {"name": "measure", "mode": "monte_carlo",
                      "n_experiments": 2000}},
]

# WRAPPED at 200 trajectories: by t = 1.6, 9 of them have frozen at the edge
FROZEN = [{**WRAPPED, "ensemble": {"n": 200, "seed": 3}, "task": task}
          for task in ({"name": "trajectories", "duration": 1.6},
                       {"name": "work", "duration": 1.6},
                       {"name": "dwell", "region": [-1.0, 1.0],
                        "horizon": 1.6},
                       {"name": "psd", "duration": 1.6})]

# sha256 of every artifact of each SAME_SEED and FROZEN config, and of each
# acceptance criterion's report entry, and the environment they were made
# in (tests/regen_artifact_digests.py writes the file)
DIGESTS = Path(__file__).with_name("artifact_digests.json")


def environment():
    """What the artifacts' bits rest on: numpy, the machine and the SIMD
    extensions numpy found on it, and the BLAS numpy was built with."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "simd": config["SIMD Extensions"]["found"],
            "blas": f"{blas['name']} {blas['version']}"}


def run_artifacts(doc, out):
    """Run config doc into out; (files, manifest): each output's bytes and
    manifest.json's keys without wall_clock."""
    run(parse_config(json.dumps(doc)), out_dir=str(out))
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["wall_clock"]
    return files, manifest


def pinned_digests(section):
    """The digests pinned in DIGESTS under section; skips the test on an
    environment other than the one they were made in."""
    pinned = json.loads(DIGESTS.read_text())
    if pinned["environment"] != environment():
        pytest.skip(f"digests pinned on {pinned['environment']}; "
                    f"this environment is {environment()}")
    return pinned[section]


def artifact_digests(files, manifest):
    """sha256 of each output file, and of manifest.json's keys without
    wall_clock as sorted JSON."""
    return {**{name: hashlib.sha256(data).hexdigest()
               for name, data in files.items()},
            "manifest.json": hashlib.sha256(
                json.dumps(manifest, sort_keys=True).encode()).hexdigest()}


_FIRST_RUNS = {}  # task name -> artifact_digests of test_determinism's run


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

    @pytest.mark.parametrize("doc", SAME_SEED,
                             ids=lambda doc: doc["task"]["name"])
    def test_determinism(self, tmp_path, doc):
        # the same config and seed give the same bytes in every file
        # (manifest.json's wall_clock aside), for every task but validate,
        # whose criteria fix their own scenarios and seeds
        assert ({d["task"]["name"] for d in SAME_SEED}
                == harness.TASKS.keys() - {"validate"})
        outputs = [run_artifacts(doc, tmp_path / name) for name in "ab"]
        assert outputs[0] == outputs[1]
        _FIRST_RUNS[doc["task"]["name"]] = artifact_digests(*outputs[0])

    @pytest.mark.parametrize("doc", SAME_SEED,
                             ids=lambda doc: doc["task"]["name"])
    def test_artifact_digests(self, tmp_path, doc):
        # every artifact keeps its bits, on the environment whose bits were
        # pinned: a change that moves one regenerates the digests and says
        # why in CHANGES.md
        pinned = pinned_digests("digests")
        name = doc["task"]["name"]
        got = _FIRST_RUNS.get(name) or artifact_digests(
            *run_artifacts(doc, tmp_path))
        assert got == pinned[name]

    @pytest.mark.parametrize("doc", FROZEN,
                             ids=lambda doc: doc["task"]["name"])
    def test_frozen_run_digests(self, tmp_path, doc):
        # the same for runs in which 9 of 200 trajectories freeze at the
        # edge: their last frame, and the frames after each froze, keep
        # their bits
        pinned = pinned_digests("frozen")
        files, manifest = run_artifacts(doc, tmp_path)
        assert manifest["summary"]["truncated"] == 9
        assert artifact_digests(files, manifest) == pinned[doc["task"]["name"]]

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

    def test_short_horizon_raises_before_the_backward_sweep(self, tmp_path,
                                                            monkeypatch):
        # the dwell task streams its frames through RK4, so the horizon is
        # judged on |psi|^2 once the last frame is propagated: before the
        # dwell operator's backward sweep and before any file is written
        from bohmlab import qgrid
        backward = []
        step = qgrid.Stepper.step

        def counting_step(stepper, amp, t):
            if stepper.dt < 0:
                backward.append(t)
            return step(stepper, amp, t)

        monkeypatch.setattr(qgrid.Stepper, "step", counting_step)
        cfg = parse_config(json.dumps({**FAST, "task": {
            "name": "dwell", "region": [-5.0, 5.0], "horizon": 0.5}}))
        with pytest.raises(HorizonError, match="probability mass"):
            run(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []
        assert backward == []

    def test_lag_horizon_raises_before_trajectories(self, tmp_path,
                                                    monkeypatch):
        # the psd task streams its currents, so the record length is judged
        # from the evolution before RK4 starts, not when the stream ends
        def refuse(*args, **kwargs):
            raise AssertionError("trajectories integrated")

        monkeypatch.setattr(intrinsics, "rk4_frames", refuse)
        cfg = parse_config(json.dumps({**FAST, "task": {
            "name": "psd", "duration": 0.5, "tau_max": 0.6}}))
        with pytest.raises(LagError, match="lag horizon"):
            run(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_lag_under_half_a_frame_raises_before_trajectories(
            self, tmp_path, monkeypatch):
        # tau_max 0.04 at a frame of 0.1 rounds to no lag: the lag integral
        # has zero width, so there is no spectrum to report, and psd says
        # so before it reads the first current
        def refuse(*args, **kwargs):
            raise AssertionError("trajectories integrated")

        monkeypatch.setattr(intrinsics, "rk4_frames", refuse)
        cfg = parse_config(json.dumps({**FAST, "task": {
            "name": "psd", "duration": 0.5, "tau_max": 0.04}}))
        with pytest.raises(LagError, match="rounds to no lag"):
            run(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_one_trajectory_dwell_writes_strict_json(self, tmp_path, capsys):
        # one trajectory has no standard error: dwell.json, manifest.json
        # and the printed manifest give null, where inf wrote Infinity,
        # which strict JSON parsers reject
        def refuse(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "grid": {"n": 256, "x_min": -20.0, "x_max": 20.0},
            "state": {"kind": "gaussian", "center": -5.0, "momentum": 3.0},
            "ensemble": {"n": 1, "seed": 3},
            "task": {"region": [-1.0, 1.0], "horizon": 6.0}}))
        out = tmp_path / "out"
        assert main(["dwell", "--config", str(path), "--out", str(out)]) == 0
        texts = [capsys.readouterr().out] + [
            (out / name).read_text() for name in ("dwell.json", "manifest.json")]
        for text in texts:
            summary = json.loads(text, parse_constant=refuse)
            summary = summary.get("summary", summary)
            assert summary["trajectory_stderr"] is None
            assert np.isfinite(summary["trajectory_mean"])

    def test_stuck_trajectory_reported(self, tmp_path, monkeypatch):
        # a trajectory held inside the region past the horizon, in the RK4
        # stream the task reads, is counted and keeps its time up to the
        # horizon in the mean
        rk4 = bohm.rk4_frames

        def hold_first(*args):
            for x, k1, frozen in rk4(*args):
                x = x.copy()
                x[0] = 0.0
                yield x, k1, frozen

        monkeypatch.setattr(bohm, "rk4_frames", hold_first)
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

    PSD = {**FAST, "grid": {"n": 256, "x_min": -20.0, "x_max": 20.0},
           "potential": {"kind": "harmonic", "omega": 0.5},
           "state": {"kind": "gaussian", "center": -3.0, "momentum": 1.0},
           "ensemble": {"n": 100, "seed": 7},
           "propagator": {"dt": 0.01, "steps_per_output": 2}}

    def test_psd_task_streams_the_stored_bits(self, tmp_path):
        # the task pulls each frame from the propagator as RK4 reaches it;
        # the stored record of the same evolution gives the same bytes
        cfg = parse_config(json.dumps({**self.PSD, "task": {
            "name": "psd", "duration": 2.0, "tau_max": 0.5}}))
        run(cfg, out_dir=str(tmp_path))
        psi = cfg.build_state(cfg.build_grid())
        ev = evolve_store(psi, cfg.build_potential(), cfg.build_propagator(),
                          2.0)
        starts = sample_initial_positions(
            psi, 100, seed=cfg.subsystem_seeds()["sampling"])
        currents, _ = ensemble_currents(ev, starts, ev.grid.length)
        want = psd(currents, ev.frame_dt, 0.5)
        for name, cols in (("psd.csv", (want.omega, want.values)),
                           ("autocorrelation.csv",
                            (want.lags, want.autocorrelation))):
            got = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            assert np.array_equal(got, np.column_stack(cols))

    def test_psd_task_memory_independent_of_duration(self, tmp_path):
        # 101 frames against 401: the stored record and field of the longer
        # run would be 3.3 MB; the streamed task holds two field blocks
        def config(duration):
            return parse_config(json.dumps({**self.PSD, "task": {
                "name": "psd", "duration": duration, "tau_max": 0.5}}))

        # a first run makes the process's first-use caches, untraced
        run(config(2.0), out_dir=str(tmp_path / "warm"))
        peaks = []
        for duration in (2.0, 8.0):
            tracemalloc.start()
            try:
                run(config(duration), out_dir=str(tmp_path / str(duration)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 32_768

    DWELL = {**FAST, "state": {"kind": "gaussian", "center": -8.0,
                               "momentum": 5.0},
             "task": {"name": "dwell", "horizon": 4.0}}

    def test_dwell_task_streams_the_stored_bits(self, tmp_path):
        # the task reads its frames through RK4, and its density and weak
        # value from the worker's window masses and overlaps; the stored
        # record of the same evolution gives the same bits, its window rows
        # the same density and weak value, and the position record's rows
        # the same dwell-time sums
        cfg = parse_config(json.dumps(self.DWELL))
        summary = run(cfg, out_dir=str(tmp_path)).summary
        region, horizon = (-2.0, 2.0), 4.0
        psi = cfg.build_state(cfg.build_grid())
        ev = evolve_store(psi, cfg.build_potential(), cfg.build_propagator(),
                          horizon, window=window_weights(psi.grid, *region))
        starts = sample_initial_positions(
            psi, 25, seed=cfg.subsystem_seeds()["sampling"])
        paths = integrate_trajectories(ev, starts)
        *_, (final, _, frozen) = bohm.rk4_frames(ev, starts)
        assert np.array_equal(final, paths[-1])
        assert summary["density"] == dwell_time_density(ev, horizon)
        assert summary["weak_value"] == dwell_weak_value(ev)
        assert summary["stuck"] == np.count_nonzero((final > region[0])
                                                    & (final < region[1]))
        assert summary["truncated"] == frozen.sum()
        table = np.loadtxt(tmp_path / "dwell_times.csv", delimiter=",",
                           skiprows=1)
        assert np.array_equal(table[:, 1], starts)
        taus = per_trajectory_dwell_times(paths, ev.times, region)
        assert np.array_equal(table[:, 2], taus)

    def test_driven_dwell_writes_every_key(self, tmp_path):
        # a driven packet gets every estimate a static one gets: the
        # adjoint identity holds for driven steps, so weak_value meets density
        def summary(potential):
            cfg = parse_config(json.dumps({**self.DWELL,
                                           "potential": potential}))
            out = tmp_path / potential["kind"]
            run(cfg, out_dir=str(out))
            return json.loads((out / "dwell.json").read_text())

        driven = summary({"kind": "drive", "amplitude": 0.2})
        barrier = summary({"kind": "barrier", "height": 1.0, "left": 10.0,
                           "right": 12.0})
        assert driven.keys() == barrier.keys()
        assert driven["weak_value"] == pytest.approx(driven["density"],
                                                     rel=1e-6)

    def test_dwell_task_memory_holds_no_record(self, tmp_path):
        # 4x the frames may add the two window rows, O(nt), and 4x the
        # trajectories O(N) (mostly the CSV text); neither adds the frame,
        # the position or the window's column record, which the task once
        # held.  The window [-6, 2] holds 26 of the 128 columns
        def peak(spo, n_traj):
            cfg = parse_config(json.dumps({
                **self.DWELL, "ensemble": {"n": n_traj, "seed": 7},
                "propagator": {"dt": 0.01, "steps_per_output": spo},
                "task": {**self.DWELL["task"], "region": [-6.0, 2.0]}}))
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path / f"{spo}-{n_traj}"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a first run makes the process's first-use caches, untraced
        run(parse_config(json.dumps(self.DWELL)), out_dir=str(tmp_path / "warm"))
        grid = parse_config(json.dumps(self.DWELL)).build_grid()
        k = np.count_nonzero(window_weights(grid, -6.0, 2.0))
        extra_frames = 200 - 50  # 400 steps at 2 and at 8 steps per frame
        window_rows = extra_frames * 2 * 8
        assert window_rows + 32_768 < extra_frames * k * 16  # the columns
        assert peak(2, 500) - peak(8, 500) <= window_rows + 32_768
        position_record = 1500 * 201 * 8
        assert 1500 * 512 < position_record
        assert peak(2, 2000) - peak(2, 500) <= 1500 * 512

    def test_work_task_memory_holds_no_record(self, tmp_path):
        # 4x the frames add nothing: the task reads its frames once,
        # through RK4, and keeps psi and the positions at the two endpoints,
        # where the stored task held the frame and the position record
        def peak(spo):
            cfg = parse_config(json.dumps({
                **FAST, "ensemble": {"n": 500, "seed": 7},
                "propagator": {"dt": 0.01, "steps_per_output": spo},
                "task": {"name": "work", "duration": 4.0}}))
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # a first run makes the process's first-use caches
        extra_frames = 200 - 50  # 400 steps at 2 and at 8 steps per frame
        frame_record = extra_frames * FAST["grid"]["n"] * 16
        assert 32_768 < frame_record < extra_frames * 500 * 8
        assert peak(2) - peak(8) <= 32_768

    def test_trajectories_task_memory_holds_no_record(self, tmp_path):
        # 4x the frames add almost nothing: the task writes each frame's
        # row as RK4 yields it, and the writer frees each block (65 rows of
        # 1001 cells) and its text before it reads the next, so a run of
        # many full blocks peaks as high as one of one full block.  The
        # collecting task held the (nt, N) position record and its
        # column_stack copy
        def peak(spo):
            cfg = parse_config(json.dumps({
                **FAST, "ensemble": {"n": 1000, "seed": 7},
                "propagator": {"dt": 0.01, "steps_per_output": spo},
                "task": {"name": "trajectories", "duration": 8.0}}))
            tracemalloc.start()
            try:
                run(cfg, out_dir=str(tmp_path))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # a first run makes the process's first-use caches
        extra_frames = 400 - 100  # 800 steps at 2 and at 8 steps per frame
        position_record = extra_frames * 1000 * 8
        assert 32_768 < position_record
        assert peak(2) - peak(8) <= 32_768

    def test_dwell_task_propagates_once(self, tmp_path, monkeypatch):
        # one forward sweep, shared by the trajectories, the density and the
        # weak value, no backward step and one per-trajectory dwell pass.
        # The forward sweep runs in a forked worker, so each step appends a
        # byte to a file that both processes write
        from bohmlab import qgrid, weakval
        log = tmp_path / "steps.log"
        step = qgrid.Stepper.step

        def counting_step(stepper, amp, t):
            with open(log, "ab") as fh:
                fh.write(b"f" if stepper.dt > 0 else b"b")
            return step(stepper, amp, t)

        passes = []
        dwell_times = harness.per_trajectory_dwell_times

        def counting_dwell_times(*args):
            passes.append(args)
            return dwell_times(*args)

        monkeypatch.setattr(qgrid.Stepper, "step", counting_step)
        monkeypatch.setattr(harness, "per_trajectory_dwell_times",
                            counting_dwell_times)
        cfg = parse_config(json.dumps({**FAST, "state": {
            "kind": "gaussian", "center": -8.0, "momentum": 5.0},
            "task": {"name": "dwell", "horizon": 4.0}}))
        summary = run(cfg, out_dir=str(tmp_path / "out")).summary
        record = log.read_bytes()
        steps = {"forward": record.count(b"f"), "backward": record.count(b"b")}
        assert steps == {"forward": 400, "backward": 0}
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
        # work averages only the trajectories that did not freeze, and psd
        # correlates no current once every trajectory froze: none is left
        cfg = parse_config(json.dumps({
            **WRAPPED, "task": {"name": task, "duration": 4.0}}))
        with pytest.raises(EmptyEnsembleError,
                           match="1000 trajectories truncated"):
            run(cfg, out_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_dwell_mean_leaves_truncated_trajectories_out(self, tmp_path):
        # a k = 5 packet at 5 on [-10, 10] crosses the edge within 2 time
        # units, while |psi|^2 has wrapped round and left [4, 6] well before
        # the horizon: every trajectory freezes, none is left to average
        cfg = parse_config(json.dumps({
            **WRAPPED, "state": {"kind": "gaussian", "center": 5.0,
                                 "momentum": 5.0},
            "ensemble": {"n": 200, "seed": 3},
            "task": {"name": "dwell", "region": [4.0, 6.0], "horizon": 2.0}}))
        with pytest.raises(EmptyEnsembleError,
                           match="200 trajectories truncated"):
            run(cfg, out_dir=str(tmp_path))
        assert not list(tmp_path.iterdir())

    def test_psd_worker_is_reaped_when_rk4_fails(self, tmp_path,
                                                 monkeypatch, forks):
        # RK4 raises mid-stream: the task's evolution is closed on the way
        # out, so its frame worker is killed and reaped inside run()
        rk4 = intrinsics.rk4_frames

        def failing(evolution, starts):
            for j, frame in enumerate(rk4(evolution, starts)):
                if j == 20:
                    raise RuntimeError("RK4 failed mid-stream")
                yield frame

        monkeypatch.setattr(intrinsics, "rk4_frames", failing)
        cfg = parse_config(json.dumps({**self.PSD, "task": {
            "name": "psd", "duration": 2.0, "tau_max": 0.5}}))
        with pytest.raises(RuntimeError, match="mid-stream"):
            run(cfg, out_dir=str(tmp_path))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)
        assert not list(tmp_path.iterdir())

    def test_work_leaves_truncated_trajectories_out(self, tmp_path):
        # at duration 1.6 some of 200 trajectories reach the edge: the
        # distribution counts the rest, and every record is still written
        # with a node-only flag
        cfg = parse_config(json.dumps({
            **WRAPPED, "ensemble": {"n": 200, "seed": 3},
            "task": {"name": "work", "duration": 1.6}}))
        summary = run(cfg, out_dir=str(tmp_path)).summary
        dist = json.loads((tmp_path / "work_distribution.json").read_text())
        records = (tmp_path / "work_records.csv").read_text().splitlines()
        assert 0 < summary["truncated"] < 200
        assert dist["count"] == 200 - summary["truncated"]
        assert len(records) == 1 + 200
        assert all(row.endswith(",false") for row in records[1:])

    @pytest.mark.parametrize("task", ["trajectories", "work", "dwell", "psd"])
    def test_one_rk4_step_per_frame(self, tmp_path, monkeypatch, task):
        # every Bohmian task integrates once, through the one RK4 generator,
        # one step per stored frame, and reports the ensemble's health
        rk4 = bohm.rk4_frames
        runs = []

        def spy(evolution, starts):
            runs.append([len(evolution.times), 0])
            for frame in rk4(evolution, starts):
                runs[-1][1] += 1
                yield frame

        monkeypatch.setattr(bohm, "rk4_frames", spy)
        monkeypatch.setattr(intrinsics, "rk4_frames", spy)
        cfg = parse_config(json.dumps({**FAST, "state": {
            "kind": "gaussian", "center": -8.0, "momentum": 5.0},
            "task": {"name": task}}))
        manifest = run(cfg, out_dir=str(tmp_path))
        assert len(runs) == 1
        assert runs[0][0] > 1 and runs[0][1] == runs[0][0]
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

    def test_rows_given_one_at_a_time(self, tmp_path):
        # a stream of array rows, as the trajectories task yields them, or
        # of tuples, as the work task zips them, writes the bytes of the
        # whole array or list; an empty stream writes the header only
        record = np.random.default_rng(2).normal(size=(300, 400))
        tuples = [(i, float(v), bool(v > 0)) for i, v in enumerate(record[0])]
        header = [f"c{j}" for j in range(400)]
        for name, rows, stream in (
                ("array", record, (row for row in record)),
                ("tuples", tuples, zip(*zip(*tuples))),
                ("empty", np.empty((0, 400)), iter([]))):
            harness._write_csv(tmp_path / f"{name}.csv", header, rows)
            harness._write_csv(tmp_path / f"{name}-stream.csv", header, stream)
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}-stream.csv").read_bytes())
        assert (tmp_path / "empty-stream.csv").read_text() \
            == ",".join(header) + "\n"


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
        ("psd", {"task": {"window": "hanning"}},
         "task.window: must be one of (None, 'hann'), got 'hanning'"),
        ("weakvalue", {"task": {"operator": "spin"}},
         "task.operator: must be one of"),
        ("measure", {"task": {"s_operator": "Momentum"}},
         "task.s_operator: must be one of"),
        ("measure", {"task": {"g_operator": None}},
         "task.g_operator: must be one of"),
        ("measure", {"task": {"mode": "mc"}}, "task.mode: must be one of"),
        ("measure", {"task": {"g_index": 500}},
         "task.g_index: must be < grid.n = 128, got 500"),
    ], ids=["x_max", "region", "coupling", "dwell-substeps",
            "trajectories-substeps", "barrier", "omega", "index", "window",
            "operator", "s_operator", "g_operator", "mode", "g_index"])
    def test_malformed_value_exit_two(self, tmp_path, capsys, task, extra,
                                      violation):
        path = self.write_config(tmp_path, extra)
        assert main([task, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"\n  {violation}" in capsys.readouterr().err

    def test_bad_name_refused_before_propagation(self, tmp_path, capsys,
                                                 monkeypatch):
        # reported with the other violations at parse time, so the psd
        # task never propagates
        def refuse(*args, **kwargs):
            raise AssertionError("evolve_store called")

        monkeypatch.setattr(harness, "evolve_store", refuse)
        path = self.write_config(tmp_path, {"task": {"window": "hanning",
                                                     "tau_max": -1.0}})
        out = tmp_path / "out"
        assert main(["psd", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "\n  task.window: must be one of" in err
        assert "\n  task.tau_max: must be > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [
        {"task": "dwell"}, {"task": 5}, {"ensemble": [1]},
        {"task": [["name", "propagate"]]},
    ], ids=["task-string", "task-number", "ensemble-list", "task-pairs"])
    def test_section_not_object_exit_two(self, tmp_path, capsys, raw):
        # the CLI fills in the task name and the seed only in objects, and
        # parse_config reports the rest
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["propagate", "--config", str(path), "--seed", "3",
                     "--out", str(out)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_region_off_the_grid_exit_two(self, tmp_path, capsys):
        # a window that holds no grid cell gives every dwell time as 0; it
        # is listed with the other violations, before anything propagates
        path = self.write_config(tmp_path, {"task": {
            "name": "dwell", "region": [30.0, 35.0], "horizon": -1.0}})
        out = tmp_path / "out"
        assert main(["dwell", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("\n  task.region: must overlap a cell of the grid "
                "[-20.0, 20.0), got [30.0, 35.0]") in err
        assert "\n  task.horizon: must be > 0" in err
        assert not out.exists()
        # the last cell, [19.53, 19.84], is enough
        parse_config(json.dumps({**FAST, "task": {
            "name": "dwell", "region": [19.8, 35.0]}}))

    def test_out_dir_not_made_exit_two(self, tmp_path, capsys):
        # an output directory under a file cannot be made: a configuration
        # error on one line, not a traceback and exit 1, which means a
        # failed criterion
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        path = self.write_config(tmp_path)
        assert main(["propagate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: output directory {str(out)!r} cannot be made: "
            "Not a directory\n")

    def test_retired_method_exit_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"propagator": {
            "dt": 0.01, "method": "split-operator"}})
        assert main(["propagate", "--config", path]) == 2
        assert "unknown key 'method'" in capsys.readouterr().err

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


MC_SMALL = {
    "grid": {"n": 64, "x_min": -20.0, "x_max": 20.0},
    "state": {"kind": "gaussian", "width": 2.0, "momentum": 1.0},
    "ensemble": {"seed": 4},
    "task": {"name": "measure", "coupling": 0.05, "mode": "monte_carlo",
             "n_experiments": 9000},
}


@pytest.fixture
def log_writers(monkeypatch):
    """Every process started through subprocess.Popen during the test.

    A test asserts returncode, which only a wait sets, so a writer that run
    did not reap stays None even if it has exited; teardown reaps any such.
    """
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    yield started
    for proc in started:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


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

    def test_jsonl_lines_are_json_dumps_text(self, tmp_path, monkeypatch):
        # more experiments than one Monte Carlo block, so the log is written
        # from several callbacks; with chunks of 2,500 experiments it also
        # crosses chunk boundaries
        cfg = parse_config(json.dumps(MC_SMALL))
        for chunk in (measure.MC_CHUNK, 2500):
            monkeypatch.setattr(measure, "MC_CHUNK", chunk)
            out = tmp_path / f"chunk-{chunk}"
            run(cfg, out_dir=str(out))
            with open(out / "experiments.jsonl") as fh:
                lines = fh.readlines()
            assert len(lines) == 9000
            for i, line in enumerate(lines):
                rec = json.loads(line)
                assert list(rec) == ["i", "y_k", "y_g", "post_selected",
                                     "weight"]
                assert rec["i"] == i
                assert json.dumps(rec) + "\n" == line

    def test_failed_chain_reaps_log_writer(self, tmp_path, log_writers):
        # the edge cell holds no density, so the chain logs its one block
        # and then finds too few post-selected experiments
        cfg = parse_config(json.dumps({**MC_SMALL, "task": {
            **MC_SMALL["task"], "g_index": 0, "n_experiments": 300}}))
        with pytest.raises(InsufficientStatisticsError):
            run(cfg, out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert len(log_writers) == 1
        assert log_writers[0].returncode is not None

    def test_failed_log_writer_raises_oserror(self, tmp_path, monkeypatch,
                                              log_writers):
        # 9,000 experiments are more bytes than a pipe holds, so the chain
        # writes to a pipe the exited writer no longer reads
        monkeypatch.setattr(harness, "_LOG_WRITER", "import sys; sys.exit(5)")
        with pytest.raises(OSError):
            run(parse_config(json.dumps(MC_SMALL)), out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert len(log_writers) == 1
        assert log_writers[0].returncode is not None


COLD_START = """
import json, sys
import bohmlab.cli, bohmlab.validation
from bohmlab.harness import parse_config, run
# only a Monte Carlo run starts the log writer, so only it imports subprocess
subprocess_at_import = "subprocess" in sys.modules
cfg = parse_config(json.dumps({
    "grid": {"n": 64, "x_min": -20.0, "x_max": 20.0},
    "state": {"kind": "gaussian", "width": 2.0, "momentum": 1.0},
    "ensemble": {"seed": 4},
    "task": {"name": "measure", "coupling": 0.05, "mode": "monte_carlo",
             "n_experiments": 500}}))
run(cfg, out_dir=sys.argv[1])
print(json.dumps([subprocess_at_import,
                  sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                         or m.startswith("concurrent.futures"))]))
"""


def test_cli_cold_start_imports_no_scipy(tmp_path):
    # a fresh interpreter: this test process has scipy loaded as an oracle;
    # the serial integrator needs no thread pool either
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    assert (tmp_path / "experiments.jsonl").exists()
    assert json.loads(done.stdout.splitlines()[-1]) == [False, []]


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


def test_cli_work_all_truncated_exit_three(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**WRAPPED, "task": {"name": "work",
                                                    "duration": 4.0}}))
    done = run_cli(["work", "--config", str(path), "--out",
                    str(tmp_path / "out")])
    assert done.returncode == 3
    assert "EmptyEnsembleError" in done.stderr
    assert "1000 trajectories truncated at the domain edge" in done.stderr


def _thread_counts(libraries):
    return [get() for _, get in libraries]


@pytest.fixture
def openblas_at_two():
    """Every OpenBLAS in this process, set to two threads for the test."""
    libraries = blas._openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS library is loaded in this process")
    before = _thread_counts(libraries)
    for set_threads, _ in libraries:
        set_threads(2)
    yield libraries
    for (set_threads, _), count in zip(libraries, before):
        set_threads(count)


class TestOneBlasThread:
    def test_task_on_one_thread_then_restored(self, tmp_path, monkeypatch,
                                              openblas_at_two):
        inside = []
        task = harness.TASKS["propagate"]

        def spy(config, tmp):
            inside.append(_thread_counts(openblas_at_two))
            return task(config, tmp)

        monkeypatch.setitem(harness.TASKS, "propagate", spy)
        run(parse_config(json.dumps(FAST)), out_dir=str(tmp_path))
        assert inside == [[1] * len(openblas_at_two)]
        assert _thread_counts(openblas_at_two) == [2] * len(openblas_at_two)

    def test_restored_after_failed_task(self, tmp_path, openblas_at_two):
        cfg = parse_config(json.dumps({**FAST, "task": {
            "name": "dwell", "region": [-5.0, 5.0], "horizon": 0.5}}))
        with pytest.raises(HorizonError):
            run(cfg, out_dir=str(tmp_path))
        assert _thread_counts(openblas_at_two) == [2] * len(openblas_at_two)

    @pytest.mark.parametrize("patch", [
        ("_MAPPED_FILES", "/nonexistent/maps"),   # no /proc
        ("_OPENBLAS_CALLS", ()),                  # another BLAS
    ], ids=["no-proc", "other-blas"])
    def test_no_openblas_found_still_runs(self, tmp_path, monkeypatch, patch):
        monkeypatch.setattr(blas, *patch)
        assert blas._openblas_libraries() == []
        manifest = run(parse_config(json.dumps(FAST)), out_dir=str(tmp_path))
        for name in manifest.outputs:
            assert (tmp_path / name).exists()


# what a fresh interpreter sees after `import bohmlab`: every OpenBLAS's
# thread count, its own threads, and the variable OpenBLAS reads
PIN_PROBE = """import json, os
{first}import bohmlab
from bohmlab import blas
print(json.dumps([[get() for _, get in blas._openblas_libraries()],
                  len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not blas._openblas_libraries(),
                    reason="numpy is not linked against OpenBLAS")
class TestImportPin:
    @staticmethod
    def probe(first="", threads=None):
        env = {k: v for k, v in os.environ.items() if k not in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", PIN_PROBE.format(
            first=first)], env=env, capture_output=True, text=True,
            check=True)
        return json.loads(done.stdout)

    def test_one_thread_and_no_worker_when_unset(self):
        counts, tasks, variable = self.probe()
        assert counts and counts == [1] * len(counts)
        assert tasks == 1
        assert variable is None

    def test_callers_variable_kept(self):
        counts, _, variable = self.probe(threads="2")
        assert counts and counts == [2] * len(counts)
        assert variable == "2"

    def test_numpy_imported_first_keeps_default(self):
        # OpenBLAS's own choice: one thread per CPU this process may use
        counts, _, variable = self.probe(first="import numpy\n")
        default = len(os.sched_getaffinity(0))
        assert counts and counts == [default] * len(counts)
        assert variable is None


DETERMINISM_MC = {
    "grid": {"x_min": -40.0, "x_max": 40.0, "n": 128},
    "potential": {"kind": "free"},
    "state": {"kind": "gaussian", "center": 0.0, "width": 2.0, "momentum": 1.0},
    "ensemble": {"seed": 7},
    "task": {"name": "measure", "mode": "monte_carlo", "coupling": 0.05,
             "n_experiments": 20_000},
}


@pytest.mark.skipif(not blas._openblas_libraries(),
                    reason="numpy is not linked against OpenBLAS, whose "
                           "bits are the same per BLAS thread count only")
def test_measure_bits_independent_of_blas_threads(tmp_path):
    # the Monte Carlo measure-mc scenario at 2x10^4 experiments: eigh's
    # eigenvectors and the block products take the same one-thread bits
    # whatever OPENBLAS_NUM_THREADS says
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(DETERMINISM_MC))
    src = Path(__file__).resolve().parent.parent / "src"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(src)
    outputs = []
    for threads in (None, "1", "2"):
        env = base if threads is None else {**base,
                                            "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-c", CLI, "measure", "--config",
                        str(path), "--out", str(out)],
                       env=env, capture_output=True, check=True)
        outputs.append({name: (out / name).read_bytes() for name in (
            "joint_distribution.csv", "measure_summary.json",
            "experiments.jsonl")})
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
