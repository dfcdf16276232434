"""Scenario configuration, deterministic task pipelines and persistence.

A scenario is a JSON document with the sections units / grid / potential /
state / propagator / ensemble / task; missing keys are filled from defaults
and unknown keys are rejected with a nearest-key suggestion.  run() executes
the configured task and writes plot-ready CSV/JSON artifacts atomically: all
files are produced in a temporary directory and moved into place only on
success, so a failed run leaves nothing behind.
"""

from __future__ import annotations

import copy
import difflib
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .qgrid import (Grid1D, PotentialModel, PropagatorConfig, WaveFunction,
                    build_hamiltonian, evolution_operator, evolve_store,
                    expectation, momentum_operator, position_operator)
from .bohm import equivariance_l1, integrate_trajectories, sample_initial_positions
from .weakval import (dwell_operator_field, grid_weak_value,
                      weak_average_quadrature)
from .intrinsics import (CurrentConfig, dwell_time_density, dwell_time_ensemble,
                         ensemble_currents, per_trajectory_dwell_times, psd,
                         work_distribution, work_records)
from .measure import (AncillaModel, TwoTimeSystem, operational_weak_value,
                      two_time_joint)

OUT_DIR_ENV = "BOHMLAB_OUT"

DEFAULTS = {
    "units": {"hbar": 1.0, "mass": 1.0, "charge": 1.0},
    "grid": {"x_min": -30.0, "x_max": 30.0, "n": 512},
    "potential": {"kind": "free"},
    "state": {"kind": "gaussian"},
    "propagator": {"dt": 0.005, "method": "split-operator",
                   "steps_per_output": 10},
    "ensemble": {"n": 1000, "seed": 42},
    "task": {"name": "propagate"},
}

_POTENTIAL_KEYS = {
    "free": set(),
    "barrier": {"height", "left", "right"},
    "harmonic": {"omega"},
    "drive": {"amplitude"},
}
# Each state kind's keys with their defaults; None marks a key to be given.
_STATE_DEFAULTS = {
    "gaussian": {"center": 0.0, "width": 1.0, "momentum": 0.0},
    "eigenstate": {"index": 0},
    "superposition": {"components": None},
}
_COMPONENT_DEFAULTS = {**_STATE_DEFAULTS["gaussian"], "weight": 1.0}
_TASK_DEFAULTS = {
    "propagate": {"duration": 1.0},
    "trajectories": {"duration": 1.0},
    "weakvalue": {"operator": "momentum", "duration": 0.0},
    "work": {"duration": 1.0},
    "dwell": {"region": [-2.0, 2.0], "horizon": 4.0},
    "psd": {"duration": 1.0, "tau_max": 0.5, "window": None,
            "device_length": None},
    "measure": {"s_operator": "momentum", "g_operator": "position",
                "coupling": 0.05, "width": 1.0, "duration": 1.0,
                "g_index": "auto", "mode": "exact", "n_experiments": 10_000},
    "validate": {},
}


def _suggest(key, known):
    close = difflib.get_close_matches(key, sorted(known), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown key {key!r}{hint}"


def _check_keys(section, given, known, errors):
    for key in given:
        if key not in known:
            errors.append(f"{section}: " + _suggest(key, known))


@dataclass(frozen=True)
class ScenarioConfig:
    units: dict
    grid: dict
    potential: dict
    state: dict
    propagator: dict
    ensemble: dict
    task: dict

    def normalized(self) -> dict:
        return asdict(self)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.normalized(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def seed(self) -> int:
        return int(self.ensemble["seed"])

    def subsystem_seeds(self) -> dict:
        """Deterministic per-subsystem streams from the one master seed.

        Fixed spawn order: 0 = equilibrium sampling, 1 = Monte Carlo
        measurement chains.
        """
        state = np.random.SeedSequence(self.seed).generate_state(2)
        return {"sampling": int(state[0]), "monte_carlo": int(state[1])}

    # -- builders ----------------------------------------------------------
    def build_grid(self) -> Grid1D:
        g = self.grid
        return Grid1D(float(g["x_min"]), float(g["x_max"]), int(g["n"]))

    def build_potential(self) -> PotentialModel:
        p = {key: float(v) for key, v in self.potential.items() if key != "kind"}
        return PotentialModel(self.potential["kind"],
                              mass=float(self.units["mass"]),
                              charge=float(self.units["charge"]), **p)

    def build_state(self, grid: Grid1D) -> WaveFunction:
        s, hbar = self.state, float(self.units["hbar"])
        if s["kind"] == "gaussian":
            return WaveFunction.gaussian(grid, center=float(s["center"]),
                                         width=float(s["width"]),
                                         momentum=float(s["momentum"]),
                                         hbar=hbar)
        if s["kind"] == "eigenstate":
            if not int(s["index"]) < grid.n:
                raise ConfigurationError(f"state.index must be < grid.n = {grid.n}")
            h = build_hamiltonian(grid, self.build_potential(),
                                  mass=float(self.units["mass"]), hbar=hbar)
            return WaveFunction(grid, h.eigenvectors()[:, int(s["index"])])
        amp = np.zeros(grid.n, dtype=complex)
        for comp in s["components"]:
            c = {key: float(v) for key, v in {**_COMPONENT_DEFAULTS, **comp}.items()}
            part = WaveFunction.gaussian(grid, c["center"], c["width"],
                                         c["momentum"], hbar=hbar)
            amp += np.sqrt(c["weight"]) * part.amplitudes
        return WaveFunction(grid, amp).normalize()

    def build_propagator(self) -> PropagatorConfig:
        p = self.propagator
        return PropagatorConfig(float(p["dt"]), method=p["method"],
                                steps_per_output=int(p["steps_per_output"]))


_ANY = (lambda v: True, "")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_COUNT = (lambda v: v.is_integer() and v >= 1, "must be an integer >= 1")
_INDEX = (lambda v: v.is_integer() and v >= 0, "must be an integer >= 0")
# Each numeric key's rule (test, description[, a non-number it also takes]),
# checked where present.  Grid1D, PotentialModel and PropagatorConfig keep
# their own range rules, applied by building them.
_NUMBERS = {
    "units": {"hbar": _POSITIVE, "mass": _POSITIVE, "charge": _ANY},
    "grid": {"x_min": _ANY, "x_max": _ANY, "n": _COUNT},
    "potential": dict.fromkeys(sorted(set().union(*_POTENTIAL_KEYS.values())), _ANY),
    "state": {"center": _ANY, "momentum": _ANY, "width": _POSITIVE, "index": _INDEX},
    "propagator": {"dt": _ANY, "steps_per_output": _COUNT},
    "ensemble": {"n": _COUNT, "seed": _INDEX},
    "task": {"duration": (lambda v: v >= 0, "must be >= 0"), "horizon": _POSITIVE,
             "tau_max": _POSITIVE, "coupling": _POSITIVE,
             "width": _POSITIVE, "n_experiments": _COUNT,
             "device_length": (*_POSITIVE, None), "g_index": (*_INDEX, "auto")},
}


def _validate(cfg: dict) -> list[str]:
    """Every violation in cfg; a known state or task kind gets its defaults."""
    errors = []

    def num(where, value, rule=_ANY):
        try:
            v = float(value)
        except (TypeError, ValueError, OverflowError):
            v = float("nan")
        if np.isfinite(v) and rule[0](v):
            return True
        errors.append(f"{where}: {rule[1] if np.isfinite(v) else 'not a number'}"
                      f", got {value!r}")
        return False

    _check_keys("top level", cfg, DEFAULTS, errors)
    for section in ("units", "grid", "propagator", "ensemble"):
        _check_keys(section, cfg[section], DEFAULTS[section], errors)
    kinds = {}
    for section, key, table in (("potential", "kind", _POTENTIAL_KEYS),
                                ("state", "kind", _STATE_DEFAULTS),
                                ("task", "name", _TASK_DEFAULTS)):
        kind = cfg[section].get(key)
        if isinstance(kind, str) and kind in table:
            kinds[section] = kind
            if section != "potential":
                cfg[section] = _merge({key: kind, **table[kind]}, cfg[section])
            _check_keys(f"{section}({kind})", [k for k in cfg[section] if k != key],
                        table[kind], errors)
        else:
            errors.append(f"{section}.{key}: " + _suggest(str(kind), table))
    for section, rules in _NUMBERS.items():
        for key, rule in rules.items():
            if key in cfg[section] and cfg[section][key] not in rule[2:]:
                num(f"{section}.{key}", cfg[section][key], rule)

    scenario = ScenarioConfig(**{section: cfg[section] for section in DEFAULTS})

    def build(section, builder):
        try:
            builder()
        except ConfigurationError as exc:
            errors.append(f"{section}: {exc}")
        except (TypeError, ValueError, OverflowError):
            pass  # a malformed number or an unknown key, recorded above

    build("grid", scenario.build_grid)
    build("propagator", scenario.build_propagator)
    if "potential" in kinds:
        build("potential", scenario.build_potential)
    state, task = cfg["state"], cfg["task"]
    if kinds.get("state") == "superposition":
        comps = state["components"]
        if not (isinstance(comps, list) and comps
                and all(isinstance(comp, dict) for comp in comps)):
            errors.append("state.components: must be a non-empty list of "
                          f"objects, got {comps!r}")
            comps = []
        for i, comp in enumerate(comps):
            _check_keys(f"state.components[{i}]", comp, _COMPONENT_DEFAULTS, errors)
            for key, default in _COMPONENT_DEFAULTS.items():  # weight > 0
                num(f"state.components[{i}].{key}", comp.get(key, default),
                    _NUMBERS["state"].get(key, _POSITIVE))
    if kinds.get("task") == "dwell":
        region = task["region"]
        if not isinstance(region, list) or len(region) != 2:
            errors.append(f"task.region: must be a pair of numbers, got {region!r}")
        elif all([num(f"task.region[{i}]", v) for i, v in enumerate(region)]) \
                and not float(region[1]) > float(region[0]):
            errors.append(f"task.region: needs b > a, got {region}")
    if kinds.get("task") == "measure" and task["mode"] not in ("exact",
                                                               "monte_carlo"):
        errors.append(f"task.mode: unknown mode {task['mode']!r}")
    return errors


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse + validate; the error message lists every violation at once."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    merged = _merge(DEFAULTS, raw)
    violations = [f"{section}: must be a JSON object" for section in DEFAULTS
                  if not isinstance(merged[section], dict)]
    if not violations:
        violations = _validate(merged)
    if violations:
        err = ConfigurationError("invalid config:\n  " + "\n  ".join(violations))
        err.violations = violations
        raise err
    return ScenarioConfig(**merged)


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    seed: int
    version: str
    outputs: list
    wall_clock: float
    summary: dict


# ---------------------------------------------------------------------------
# Output writers (17 significant digits so downstream diffs are exact)
# ---------------------------------------------------------------------------

_CSV_BLOCK_CELLS = 1 << 16


def _cell_format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%.16e"


def _write_csv(path, header, rows):
    """Header, then rows written in blocks of about _CSV_BLOCK_CELLS cells.

    Each column keeps the format of its first cell: bools as true/false,
    ints as %d, everything else as %.16e.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if len(rows) == 0:
            return
        line = ",".join(map(_cell_format, rows[0])) + "\n"
        # %s gives True/False; the int and float text is lower case already.
        lower = "%s" in line
        step = max(1, _CSV_BLOCK_CELLS // len(rows[0]))
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            text = "".join([line % tuple(row) for row in block])
            fh.write(text.lower() if lower else text)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Task pipelines: each returns (output file names, summary dict)
# ---------------------------------------------------------------------------

def _mass_hbar(config):
    return float(config.units["mass"]), float(config.units["hbar"])


def _evolve(config, duration):
    grid = config.build_grid()
    pot = config.build_potential()
    psi = config.build_state(grid)
    mass, hbar = _mass_hbar(config)
    ev = evolve_store(psi, pot, config.build_propagator(), duration,
                      mass=mass, hbar=hbar)
    return grid, pot, psi, ev


def _task_propagate(config, tmp):
    grid, _, _, ev = _evolve(config, float(config.task["duration"]))
    header = ["x"] + [f"t={t:.6g}" for t in ev.times]
    dens = np.array([ev.psi(i).density() for i in range(len(ev.times))])
    _write_csv(os.path.join(tmp, "density.csv"), header,
               np.column_stack([grid.x, dens.T]))
    norms = [(t, ev.psi(i).norm()) for i, t in enumerate(ev.times)]
    _write_csv(os.path.join(tmp, "norms.csv"), ["t", "norm"], norms)
    return ["density.csv", "norms.csv"], {
        "n_frames": len(ev.times), "final_norm": float(ev.psi(len(ev.times) - 1).norm())}


def _trajectory_ensemble(config, ev, psi):
    starts = sample_initial_positions(psi, int(config.ensemble["n"]),
                                      seed=config.subsystem_seeds()["sampling"])
    ens = integrate_trajectories(ev, starts)
    return ens, {"truncated": int(ens.truncated.sum())}


def _task_trajectories(config, tmp):
    _, _, psi, ev = _evolve(config, float(config.task["duration"]))
    ens, health = _trajectory_ensemble(config, ev, psi)
    header = ["t"] + [f"x_{i}" for i in range(ens.count)]
    _write_csv(os.path.join(tmp, "trajectories.csv"), header,
               np.column_stack([ens.times, ens.positions]))
    last = len(ev.times) - 1
    return ["trajectories.csv"], {
        "n_trajectories": ens.count,
        "equivariance_l1_final": equivariance_l1(ev, ens, last), **health}


def _operator(name, grid, mass, hbar, potential):
    if name == "momentum":
        return momentum_operator(grid, hbar)
    if name == "position":
        return position_operator(grid)
    if name == "hamiltonian":
        return build_hamiltonian(grid, potential, mass=mass, hbar=hbar)
    raise ConfigurationError(f"unknown operator {name!r}")


def _task_weakvalue(config, tmp):
    duration = float(config.task["duration"])
    if duration > 0:
        grid, pot, _, ev = _evolve(config, duration)
        psi = ev.psi(len(ev.times) - 1)
    else:
        grid = config.build_grid()
        pot = config.build_potential()
        psi = config.build_state(grid)
    mass, hbar = _mass_hbar(config)
    op = _operator(config.task["operator"], grid, mass, hbar, pot)
    dens = psi.density()
    wv = grid_weak_value(op.apply(psi.amplitudes), psi.amplitudes)
    _write_csv(os.path.join(tmp, "weakvalue.csv"),
               ["x", "real", "imag", "density"],
               np.column_stack([grid.x, wv.real, wv.imag, dens]))
    return ["weakvalue.csv"], {
        "operator": config.task["operator"],
        "quadrature_average": weak_average_quadrature(op, psi)}


def _task_work(config, tmp):
    grid, pot, psi, ev = _evolve(config, float(config.task["duration"]))
    ens, health = _trajectory_ensemble(config, ev, psi)
    t2 = float(ev.times[-1])
    records = work_records(ev, pot, ens, 0.0, t2)
    e1, e2 = records.T
    flagged = np.isnan(records).any(axis=1)
    _write_csv(os.path.join(tmp, "work_records.csv"),
               ["experiment_id", "e_initial", "e_final", "work", "flagged"],
               list(zip(range(ens.count), e1.tolist(), e2.tolist(),
                        (e2 - e1).tolist(), flagged.tolist())))
    dist = work_distribution(records)
    mass, hbar = _mass_hbar(config)
    delta_h = expectation(build_hamiltonian(grid, pot, t=t2, mass=mass, hbar=hbar),
                          ev.psi(len(ev.times) - 1)) \
        - expectation(build_hamiltonian(grid, pot, t=0.0, mass=mass, hbar=hbar),
                      psi)
    _write_json(os.path.join(tmp, "work_distribution.json"), {
        "bin_edges": list(dist.bin_edges), "probabilities": list(dist.probabilities),
        "count": dist.count, "mean": dist.mean, "std": dist.std,
        "flagged_count": dist.flagged_count})
    return ["work_records.csv", "work_distribution.json"], {
        "mean_work": dist.mean, "std_work": dist.std,
        "delta_h": float(delta_h), "flagged": dist.flagged_count, **health}


def _task_dwell(config, tmp):
    region = tuple(float(v) for v in config.task["region"])
    horizon = float(config.task["horizon"])
    grid, pot, psi, ev = _evolve(config, horizon)
    # raises HorizonError before any trajectory is integrated
    t_density = dwell_time_density(ev, region, horizon)
    ens, health = _trajectory_ensemble(config, ev, psi)
    taus = per_trajectory_dwell_times(ens, region)
    t_traj, stderr = dwell_time_ensemble(taus)
    _write_csv(os.path.join(tmp, "dwell_times.csv"),
               ["experiment_id", "x_start", "tau"],
               np.column_stack([np.arange(ens.count), ens.positions[0], taus]))
    final = ens.positions[-1]
    summary = {"trajectory_mean": float(t_traj),
               "trajectory_stderr": float(stderr),
               "density": t_density,
               "stuck": int(np.count_nonzero((final > region[0])
                                             & (final < region[1]))), **health}
    if not pot.time_dependent:
        field_vals = dwell_operator_field(ev, region, horizon,
                                          config.build_propagator())
        ok = np.isfinite(field_vals)
        summary["weak_value"] = float(
            np.sum(psi.density()[ok] * field_vals[ok]) * grid.dx)
    _write_json(os.path.join(tmp, "dwell.json"), summary)
    return ["dwell_times.csv", "dwell.json"], summary


def _task_psd(config, tmp):
    grid, _, psi, ev = _evolve(config, float(config.task["duration"]))
    ens, health = _trajectory_ensemble(config, ev, psi)
    length = config.task["device_length"]
    length = float(length) if length is not None else grid.x_max - grid.x_min
    currents = ensemble_currents(ev, ens, CurrentConfig(
        length=length, charge=float(config.units["charge"])))
    result = psd(currents, float(ev.frame_dt), float(config.task["tau_max"]),
                 window=config.task["window"])
    _write_csv(os.path.join(tmp, "autocorrelation.csv"), ["tau", "c"],
               np.column_stack([result.lags, result.autocorrelation]))
    _write_csv(os.path.join(tmp, "psd.csv"), ["omega", "psd"],
               np.column_stack([result.omega, result.values]))
    mid = len(result.omega) // 2
    return ["autocorrelation.csv", "psd.csv"], {
        "psd_zero": float(result.values[mid]),
        "n_lags": len(result.lags), "device_length": length, **health}


def _task_measure(config, tmp):
    grid = config.build_grid()
    pot = config.build_potential()
    psi = config.build_state(grid)
    mass, hbar = _mass_hbar(config)
    task = config.task
    u = evolution_operator(grid, pot, float(task["duration"]),
                           mass=mass, hbar=hbar)
    s_op = _operator(task["s_operator"], grid, mass, hbar, pot)
    g_op = _operator(task["g_operator"], grid, mass, hbar, pot)
    system = TwoTimeSystem.from_wavefunction(psi, s_op, g_op, u)
    s_max = float(np.abs(system.s_values).max())
    ancilla = AncillaModel.gaussian(float(task["coupling"]),
                                    float(task["width"]), s_max)
    joint = two_time_joint(system, ancilla)
    if task["g_index"] == "auto":
        g_index = int(np.argmax(joint.second_outcome_probabilities()))
    else:
        g_index = int(task["g_index"])

    header = ["y_k"] + [f"g={g:.10g}" for g in joint.g_values]
    _write_csv(os.path.join(tmp, "joint_distribution.csv"), header,
               np.column_stack([joint.yk_grid, joint.density.T]))

    exact = operational_weak_value(system, ancilla, g_index, mode="exact")
    summary = {"g_index": g_index,
               "g_value": float(joint.g_values[g_index]),
               "exact_value": exact.value,
               "post_selection_probability": exact.post_selection_probability,
               "retained_weight": system.retained_weight}
    files = ["joint_distribution.csv", "measure_summary.json"]
    if task["mode"] == "monte_carlo":
        log_path = os.path.join(tmp, "experiments.jsonl")
        # The text json.dumps gives each record: floats print as repr, and
        # between y_k and weight only the (outcome, hit) pair varies, so
        # middles[2 * outcome + hit] is that text.
        middles = [f', "y_g": {y_g!r}, "post_selected": {flag}, "weight": '
                   for y_g in (ancilla.coupling * joint.g_values).tolist()
                   for flag in ("false", "true")]
        with open(log_path, "w") as fh:
            def log(done, y_k, outcome, hit, weights):
                m = len(y_k)
                mids = [middles[k] for k in (2 * outcome + hit).tolist()]
                fh.write(('{"i": %d, "y_k": %r%s%r}\n' * m) % tuple(
                    chain.from_iterable(zip(range(done, done + m), y_k.tolist(),
                                            mids, weights.tolist()))))

            mc = operational_weak_value(
                system, ancilla, g_index, mode="monte_carlo",
                n_experiments=int(task["n_experiments"]),
                seed=config.subsystem_seeds()["monte_carlo"], log_callback=log)
        summary.update(monte_carlo_value=mc.value, monte_carlo_stderr=mc.stderr,
                       n_selected=mc.n_selected)
        files.append("experiments.jsonl")
    _write_json(os.path.join(tmp, "measure_summary.json"), summary)
    return files, summary


def _task_validate(config, tmp):
    from .validation import validate_all
    report = validate_all()
    _write_json(os.path.join(tmp, "validation_report.json"), report)
    return ["validation_report.json"], {
        "passed": report["passed"], "n_passed": report["n_passed"],
        "n_total": report["n_total"]}


TASKS = {
    "propagate": _task_propagate,
    "trajectories": _task_trajectories,
    "weakvalue": _task_weakvalue,
    "work": _task_work,
    "dwell": _task_dwell,
    "psd": _task_psd,
    "measure": _task_measure,
    "validate": _task_validate,
}


def resolve_out_dir(explicit: str | None = None) -> str:
    return explicit or os.environ.get(OUT_DIR_ENV) or "runs"


def run(config: ScenarioConfig, out_dir: str | None = None,
        threads: int = 1) -> RunManifest:
    """Execute the configured task; outputs appear atomically in out_dir.

    Trajectories are integrated serially.  threads accepts only 1: it is
    kept for perfbench, which passes threads=1, and goes at the next
    benchmark revision (ROADMAP item 1, step (a)).
    """
    if threads != 1:
        raise ConfigurationError(f"threads must be 1, got {threads!r}")
    out_dir = resolve_out_dir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir, prefix=".partial-")
    start = time.perf_counter()
    try:
        files, summary = TASKS[config.task["name"]](config, tmp)
        manifest = RunManifest(config.config_hash, config.seed, __version__,
                               files + ["manifest.json"],
                               time.perf_counter() - start, summary)
        _write_json(os.path.join(tmp, "manifest.json"), asdict(manifest))
        for name in manifest.outputs:
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return manifest
