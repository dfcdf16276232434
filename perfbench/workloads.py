"""The three benchmark scenarios, keyed by workload name.

Each scenario is a bohmlab config document; the ensemble seed is the only
input that varies between runs and comes from the benchmark's --seed.
"""

from __future__ import annotations

WORKLOADS = {
    # The README dwell scenario verbatim: intrinsic side at desk scale.
    "dwell-desk": {
        "grid": {"x_min": -40.0, "x_max": 40.0, "n": 512},
        "potential": {"kind": "barrier", "height": 1.0, "left": 2.0,
                      "right": 3.0},
        "state": {"kind": "gaussian", "center": -10.0, "width": 1.0,
                  "momentum": 5.0},
        "propagator": {"dt": 0.0025, "steps_per_output": 8},
        "ensemble": {"n": 2000},
        "task": {"name": "dwell", "region": [-2.0, 2.0], "horizon": 5.0},
    },
    # Currents + PSD at large scale: 251 frames, 10^4 trajectories.
    "psd-large": {
        "grid": {"x_min": -60.0, "x_max": 60.0, "n": 2048},
        "potential": {"kind": "harmonic", "omega": 0.5},
        "state": {"kind": "gaussian", "center": -3.0, "width": 1.0,
                  "momentum": 1.0},
        "propagator": {"dt": 0.0025, "steps_per_output": 8},
        "ensemble": {"n": 10_000},
        "task": {"name": "psd", "duration": 5.0, "tau_max": 2.0},
    },
    # Operational side: Monte Carlo measurement chain with its JSONL log.
    "measure-mc": {
        "grid": {"x_min": -40.0, "x_max": 40.0, "n": 128},
        "potential": {"kind": "free"},
        "state": {"kind": "gaussian", "center": 0.0, "width": 2.0,
                  "momentum": 1.0},
        "task": {"name": "measure", "mode": "monte_carlo", "coupling": 0.05,
                 "n_experiments": 200_000},
    },
}


def scenario(workload: str, seed: int) -> dict:
    """The config document of `workload` with the ensemble seed set."""
    doc = {key: dict(value) for key, value in WORKLOADS[workload].items()}
    doc["ensemble"] = {**doc.get("ensemble", {}), "seed": seed}
    return doc
