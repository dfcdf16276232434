"""Correctness gates read from a run's own artifacts, and their self-test.

Tolerances are the acceptance suite's (bohmlab.validation): dwell times
agree pairwise within 2%; the PSD is even within 1e-8 and PSD(0) equals the
trapezoid lag integral of the autocorrelation within 1e-6; the Monte Carlo
estimate lies within 3 standard errors of the exact quadrature with at least
10 post-selected experiments.  The acceptance suite checks the PSD on a
record of unit scale, so here both PSD tolerances are taken relative to the
scale of the record.  Nothing is compared against stored bits, because the
RNG stream of the Monte Carlo chain may change between versions.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil

import numpy as np

from workloads import WORKLOADS

DWELL_PAIR_REL = 0.02
PSD_EVEN_REL = 1e-8
PSD_ZERO_REL = 1e-6
MC_MAX_Z = 3.0
MC_MIN_SELECTED = 10


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def check_dwell(out_dir: str) -> list[str]:
    summary = _read_json(os.path.join(out_dir, "dwell.json"))
    keys = ("trajectory_mean", "density", "weak_value")
    missing = [k for k in keys if k not in summary]
    if missing:
        return [f"dwell.json lacks {missing}"]
    vals = [float(summary[k]) for k in keys]
    if not all(math.isfinite(v) for v in vals):
        return [f"non-finite dwell time in {dict(zip(keys, vals))}"]
    problems = []
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = vals[i], vals[j]
            rel = abs(a - b) / max(abs(a), abs(b))
            if not rel <= DWELL_PAIR_REL:
                problems.append(f"{keys[i]}={a} and {keys[j]}={b} differ by "
                                f"{rel:.3%} > {DWELL_PAIR_REL:.0%}")
    taus = _read_csv(os.path.join(out_dir, "dwell_times.csv"))
    n = WORKLOADS["dwell-desk"]["ensemble"]["n"]
    if taus.shape[0] != n or not np.all(np.isfinite(taus)):
        problems.append(f"dwell_times.csv: expected {n} finite rows")
    return problems


def check_psd(out_dir: str) -> list[str]:
    spec = _read_csv(os.path.join(out_dir, "psd.csv"))
    corr = _read_csv(os.path.join(out_dir, "autocorrelation.csv"))
    if not (np.all(np.isfinite(spec)) and np.all(np.isfinite(corr))):
        return ["non-finite value in psd.csv or autocorrelation.csv"]
    omega, values = spec[:, 0], spec[:, 1]
    lags, c = corr[:, 0], corr[:, 1]
    problems = []
    if len(omega) % 2 == 0 or not np.allclose(omega, -omega[::-1],
                                              rtol=0, atol=1e-12):
        problems.append("psd.csv: omega is not a symmetric grid")
    scale = float(np.max(np.abs(values)))
    odd = float(np.max(np.abs(values - values[::-1])))
    if not odd <= PSD_EVEN_REL * scale:
        problems.append(f"psd.csv: not even in omega ({odd:.3e} vs scale "
                        f"{scale:.3e})")
    dt = lags[1] - lags[0]
    weights = np.full(len(lags), dt)
    weights[0] = weights[-1] = 0.5 * dt
    integral = float(weights @ c)
    zero_dev = abs(values[len(values) // 2] - integral)
    if not zero_dev <= PSD_ZERO_REL * float(weights @ np.abs(c)):
        problems.append(f"PSD(0)={values[len(values) // 2]} is not the lag "
                        f"integral {integral} of the autocorrelation")
    return problems


def check_measure(out_dir: str) -> list[str]:
    summary = _read_json(os.path.join(out_dir, "measure_summary.json"))
    mc, exact = summary["monte_carlo_value"], summary["exact_value"]
    stderr, n_sel = summary["monte_carlo_stderr"], summary["n_selected"]
    problems = []
    if not abs(mc - exact) <= MC_MAX_Z * stderr:
        problems.append(f"|MC {mc} - exact {exact}| > {MC_MAX_Z} x {stderr}")
    if not n_sel >= MC_MIN_SELECTED:
        problems.append(f"n_selected={n_sel} < {MC_MIN_SELECTED}")
    lines = selected = 0
    with open(os.path.join(out_dir, "experiments.jsonl")) as fh:
        for line in fh:
            lines += 1
            selected += bool(json.loads(line)["post_selected"])
    n_exp = WORKLOADS["measure-mc"]["task"]["n_experiments"]
    if lines != n_exp:
        problems.append(f"experiments.jsonl has {lines} lines, not {n_exp}")
    if selected != n_sel:
        problems.append(f"experiments.jsonl post-selects {selected}, "
                        f"summary says {n_sel}")
    return problems


GATES = {"dwell-desk": check_dwell, "psd-large": check_psd,
         "measure-mc": check_measure}


def check(workload: str, out_dir: str) -> list[str]:
    """Problems found in the artifacts of one run; empty when it passes."""
    try:
        return GATES[workload](out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Self-test: every gate must reject a doctored copy of passing artifacts.
# ---------------------------------------------------------------------------

def _edit_json(name, key, fn):
    def doctor(d):
        path = os.path.join(d, name)
        obj = _read_json(path)
        obj[key] = fn(obj)
        with open(path, "w") as fh:
            json.dump(obj, fh)
    return doctor


def _edit_csv_cell(name, row, col, fn):
    def doctor(d):
        path = os.path.join(d, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[row].split(",")
        cells[col] = fn(cells[col])
        lines[row] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return doctor


def _psd_mid_row(d):
    with open(os.path.join(d, "psd.csv")) as fh:
        return (sum(1 for _ in fh) - 1) // 2 + 1


def _edit_lines(name, fn):
    def doctor(d):
        path = os.path.join(d, name)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(fn(lines))
    return doctor


def _drop_last_line(name):
    return _edit_lines(name, lambda lines: lines[:-1])


def _flip_first_unselected(lines):
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if not rec["post_selected"]:
            rec["post_selected"] = True
            lines[i] = json.dumps(rec) + "\n"
            return lines
    raise ValueError("no unselected experiment to flip")


def _nudge(rel):
    return lambda cell: repr(float(cell) * (1.0 + rel))


DOCTORED = {
    "dwell-desk": {
        "weak value off by 3%": _edit_json(
            "dwell.json", "weak_value", lambda o: o["weak_value"] * 1.03),
        "density dwell time NaN": _edit_json(
            "dwell.json", "density", lambda o: float("nan")),
        "one dwell time row missing": _drop_last_line("dwell_times.csv"),
    },
    "psd-large": {
        "PSD not even": lambda d: _edit_csv_cell(
            "psd.csv", _psd_mid_row(d) - 1, 1, _nudge(1e-6))(d),
        "PSD(0) off the lag integral": lambda d: _edit_csv_cell(
            "psd.csv", _psd_mid_row(d), 1, _nudge(1e-4))(d),
        "NaN in autocorrelation": _edit_csv_cell(
            "autocorrelation.csv", 1, 1, lambda cell: "nan"),
    },
    "measure-mc": {
        "MC 4 stderr from exact": _edit_json(
            "measure_summary.json", "monte_carlo_value",
            lambda o: o["exact_value"] + 4 * o["monte_carlo_stderr"]),
        "too few post-selected": _edit_json(
            "measure_summary.json", "n_selected", lambda o: 5),
        "log line missing": _drop_last_line("experiments.jsonl"),
        "log post-selection flipped": _edit_lines("experiments.jsonl",
                                                  _flip_first_unselected),
    },
}


def self_test(workload: str, out_dir: str, scratch: str) -> list[str]:
    """Doctor copies of passing artifacts; report each doctoring not caught."""
    escaped = []
    for label, doctor in DOCTORED[workload].items():
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(out_dir, scratch)
        doctor(scratch)
        if not check(workload, scratch):
            escaped.append(f"gate accepted doctored artifact: {label}")
    shutil.rmtree(scratch, ignore_errors=True)
    return escaped
