"""Traced run: spans and counts around every layer call of one task run.

    python3 perfbench/trace.py WORKLOAD SEED OUT_DIR SPANS_PATH

The layer functions that bohmlab.harness calls are wrapped, in this process
only, by spans recorded from this file, so each span sees exactly the inputs
of the task, including config.subsystem_seeds().  Because every layer span
nests inside the harness.run span, harness.self_s (run time minus the time
its child spans cover) is never negative.  After the run, the captured
inputs are replayed for what must not disturb the timed run: the RK4
integration with threads=2, and tracemalloc peaks of the three layers that
allocate the most.  Spans (name, start, end, parent, run id) are kept in
memory and written to SPANS_PATH as JSON lines at the end.  Prints one JSON
line: {"metrics": {...}, "problems": [...]}.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
import uuid

import numpy as np

from workloads import scenario

MB = 1e6

# Every per-layer metric with its unit; a layer the workload does not use
# reports 0 time and 0 count.
LAYER_METRICS = {
    "qgrid.evolve_store_s": "s",
    "qgrid.steps": "count",
    "qgrid.frames_mb": "MB",
    "qgrid.evolution_operator_s": "s",
    "bohm.sample_s": "s",
    "bohm.truncated": "count",
    "bohm.kept_ratio": "ratio",
    "bohm.integrate_s": "s",
    "bohm.rk4_evals": "count",
    "bohm.ns_per_eval": "ns",
    "bohm.integrate_peak_mb": "MB",
    "bohm.integrate_threads2_s": "s",
    "weakval.dwell_operator_field_s": "s",
    "weakval.cn_steps": "count",
    "weakval.dwell_operator_field_peak_mb": "MB",
    "intrinsics.dwell_times_s": "s",
    "intrinsics.dwell_ensemble_s": "s",
    "intrinsics.dwell_density_s": "s",
    "intrinsics.currents_s": "s",
    "intrinsics.psd_s": "s",
    "intrinsics.psd_lags": "count",
    "measure.system_s": "s",
    "measure.joint_s": "s",
    "measure.exact_s": "s",
    "measure.mc_s": "s",
    "measure.mc_ns_per_experiment": "ns",
    "measure.mc_peak_mb": "MB",
    "measure.post_selected_ratio": "ratio",
    "harness.parse_config_s": "s",
    "harness.run_s": "s",
    "harness.self_s": "s",
    "harness.bytes_written": "B",
    "harness.trace_overhead_ratio": "ratio",
}


class Tracer:
    """Spans and counts of one run, kept in memory until written out."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run_id": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, span: dict) -> float:
        """The span's duration minus the time its direct children cover.

        Children of one span run one after another on this thread, so the
        time they cover is the sum of their durations.
        """
        covered = sum(s["end"] - s["start"] for s in self.spans
                      if s["parent"] == span["id"])
        return span["end"] - span["start"] - covered

    def harness_self(self) -> float:
        """harness.run time not spent in the work of a layer span.

        Harness code called from inside a layer (the experiment log
        callback) counts as harness time.
        """
        run = next(s for s in self.spans if s["name"] == "harness.run")
        layers = sum(self.self_time(s) for s in self.spans
                     if s["start"] >= run["start"] and s["end"] <= run["end"]
                     and not s["name"].startswith("harness."))
        return run["end"] - run["start"] - layers

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"run_id": self.run_id,
                                 "counts": self.counts}) + "\n")


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class TracedHarness:
    """Wraps the layer calls of bohmlab.harness and records what they did."""

    def __init__(self, harness, tracer: Tracer):
        self.harness, self.tracer = harness, tracer
        self.captured: dict[str, tuple] = {}
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        from bohmlab.measure import TwoTimeSystem
        self._targets = [
            (harness, "evolve_store", "qgrid.evolve_store", self._on_evolve),
            (harness, "evolution_operator", "qgrid.evolution_operator", None),
            (harness, "sample_initial_positions", "bohm.sample", None),
            (harness, "integrate_trajectories", "bohm.integrate",
             self._on_integrate),
            (harness, "dwell_operator_field", "weakval.dwell_operator_field",
             self._on_dwell_field),
            (harness, "per_trajectory_dwell_times", "intrinsics.dwell_times",
             None),
            (harness, "dwell_time_ensemble", "intrinsics.dwell_ensemble", None),
            (harness, "dwell_time_density", "intrinsics.dwell_density", None),
            (harness, "ensemble_currents", "intrinsics.currents", None),
            (harness, "psd", "intrinsics.psd", self._on_psd),
            (TwoTimeSystem, "from_wavefunction", "measure.system", None),
            (harness, "two_time_joint", "measure.joint", None),
        ]

    @property
    def span_names(self) -> list[str]:
        """Names of the layer spans whose total time is a metric."""
        return [target[2] for target in self._targets] + ["measure.exact"]

    def __enter__(self):
        for owner, attr, span_name, on_call in self._targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patch(owner, attr, self._wrap(span_name, fn, on_call))
        weak = getattr(self.harness, "operational_weak_value", None)
        if weak is None:
            self.missing.append("harness.operational_weak_value")
        else:
            self._patch(self.harness, "operational_weak_value",
                        self._wrap_weak_value(weak))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, wrapper):
        # the raw attribute keeps a classmethod a classmethod on restore
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.tracer.span(span_name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(fn, args, kwargs, result)
            return result
        return staticmethod(wrapper) if inspect.isclass(
            getattr(fn, "__self__", None)) else wrapper

    def _wrap_weak_value(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = _bind(fn, args, kwargs)
            if call["mode"] != "monte_carlo":
                with tracer.span("measure.exact"):
                    return fn(**call)
            self.captured["mc"] = (fn, (), {**call, "log_callback": None})
            log = call["log_callback"]
            if log is not None:
                def traced_log(*a, **kw):
                    with tracer.span("harness.experiment_log"):
                        return log(*a, **kw)
                call["log_callback"] = traced_log
            with tracer.span("measure.mc"):
                result = fn(**call)
            tracer.count("measure.n_experiments", call["n_experiments"])
            tracer.count("measure.n_selected", result.n_selected)
            return result
        return wrapper

    def _on_evolve(self, fn, args, kwargs, ev):
        cfg = _bind(fn, args, kwargs)["cfg"]
        self.tracer.count("qgrid.steps", (len(ev.times) - 1) * cfg.steps_per_output)
        self.tracer.count("qgrid.frames_mb", ev.frames.nbytes / MB)

    def _on_integrate(self, fn, args, kwargs, ens):
        call = _bind(fn, args, kwargs)
        self.captured["integrate"] = (fn, args, kwargs, ens)
        nt, n = ens.positions.shape
        self.tracer.count("bohm.rk4_evals", n * (nt - 1) * call["substeps"] * 4)
        self.tracer.count("bohm.trajectories", n)
        self.tracer.count("bohm.truncated", int(np.count_nonzero(ens.truncated)))

    def _on_dwell_field(self, fn, args, kwargs, result):
        call = _bind(fn, args, kwargs)
        cfg, spo = call["cfg"], call["cfg"].steps_per_output
        n_frames = max(1, int(round(call["horizon"] / (cfg.dt * spo))))
        self.captured["dwell_field"] = (fn, args, kwargs)
        self.tracer.count("weakval.cn_steps", 2 * n_frames * spo)

    def _on_psd(self, fn, args, kwargs, result):
        self.tracer.count("intrinsics.psd_lags", len(result.lags))


def _peak_mb(fn, args, kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def main(workload: str, seed: str, out_dir: str, spans_path: str) -> None:
    tracer = Tracer()
    from bohmlab import harness

    with tracer.span("harness.parse_config"):
        config = harness.parse_config(json.dumps(scenario(workload, int(seed))))
    with TracedHarness(harness, tracer) as traced:
        with tracer.span("harness.run"):
            harness.run(config, out_dir, threads=1)

    c, problems = tracer.counts, []
    if traced.missing:
        problems.append(f"layer calls not found, left untraced: {traced.missing}")
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    for span_name in traced.span_names + ["harness.parse_config", "harness.run"]:
        m[span_name + "_s"] = tracer.total(span_name)
    for count_name in ("qgrid.steps", "qgrid.frames_mb", "bohm.rk4_evals",
                       "bohm.truncated", "weakval.cn_steps",
                       "intrinsics.psd_lags"):
        m[count_name] = c.get(count_name, 0)
    m["measure.mc_s"] = sum(tracer.self_time(s) for s in tracer.spans
                            if s["name"] == "measure.mc")
    m["harness.self_s"] = tracer.harness_self()
    m["harness.bytes_written"] = _dir_bytes(out_dir)
    if c.get("bohm.trajectories"):
        m["bohm.kept_ratio"] = 1 - c["bohm.truncated"] / c["bohm.trajectories"]
        m["bohm.ns_per_eval"] = m["bohm.integrate_s"] / c["bohm.rk4_evals"] * 1e9
    if c.get("measure.n_experiments"):
        m["measure.post_selected_ratio"] = (c["measure.n_selected"]
                                            / c["measure.n_experiments"])
        m["measure.mc_ns_per_experiment"] = (m["measure.mc_s"]
                                             / c["measure.n_experiments"] * 1e9)

    # Replays with the captured inputs, after the timed run.
    if "integrate" in traced.captured:
        fn, args, kwargs, ens = traced.captured["integrate"]
        if "threads" in inspect.signature(fn).parameters:
            kw2 = {**kwargs, "threads": 2}
            with tracer.span("bohm.integrate_threads2"):
                ens2 = fn(*args, **kw2)
            m["bohm.integrate_threads2_s"] = tracer.total("bohm.integrate_threads2")
            if not np.array_equal(ens.positions, ens2.positions):
                problems.append("threads=2 trajectories differ from threads=1")
        m["bohm.integrate_peak_mb"] = _peak_mb(fn, args, kwargs)
    if "dwell_field" in traced.captured:
        m["weakval.dwell_operator_field_peak_mb"] = _peak_mb(
            *traced.captured["dwell_field"])
    if "mc" in traced.captured:
        m["measure.mc_peak_mb"] = _peak_mb(*traced.captured["mc"])

    tracer.write(spans_path)
    print(json.dumps({"metrics": m, "problems": problems}))


if __name__ == "__main__":
    main(*sys.argv[1:])
