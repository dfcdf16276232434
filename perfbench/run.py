"""bohmlab benchmark: one CLI task per sample, run like a CLI user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bohmlab is imported from ./src.
The loop is closed with one client: each sample is a fresh interpreter
(perfbench/sample.py) that imports bohmlab, parses the scenario and calls
harness.run(config, out_dir, threads=1); the next sample starts when the
previous one has ended.  Samples continue while the next one, at the median
duration so far, would end within S seconds; there are at least MIN_SAMPLES
of them.  Every sample uses the same seed, so every
sample's artifacts must be byte-identical to the first's (manifest.json's
wall_clock aside); the first artifacts go through the correctness gate and
its doctored-artifact self-test (gates.py).

--trace 0 reports the end-to-end metrics as medians over the samples.
--trace 1 runs one untraced sample and one traced run (tracer.py) and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is the JSON result.  Artifacts, spans and a result
record with the environment go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
from tracer import LAYER_METRICS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
MIN_SAMPLES = 3
RUN_BUDGET_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fingerprint(out_dir: Path) -> dict:
    """sha256 of every artifact; manifest.json without its wall_clock."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


class Run:
    """One benchmark run: its child processes, their artifacts, the verdicts.

    Every child of the run shares one deadline, so the run ends within
    RUN_BUDGET_S whatever the children do.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.reference: dict | None = None
        self.verdicts: dict[str, list[str]] = {}
        self.self_test_escapes: list[str] | None = None

    def child(self, label: str, script: str, out: Path, *extra):
        """Run one child interpreter that writes its artifacts to `out`.

        Returns (its JSON record or None, the problems found).
        """
        spawned_at = time.monotonic()
        argv = [sys.executable, str(BENCH / script), self.workload,
                str(self.seed), str(out), *map(str, extra)]
        if script == "sample.py":
            argv.append(repr(spawned_at))
        timeout = self.deadline - spawned_at
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  cwd=ROOT, env=_child_env(),
                                  timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            return None, [f"{label}: stopped at the run's {RUN_BUDGET_S} s budget"]
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return None, [f"{label}: exited {proc.returncode}: {tail[0]}"]
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        return record, [f"{label}: {p}" for p in self.judge(out)]

    def judge(self, out_dir: Path) -> list[str]:
        """Gate verdict plus the determinism check against the first child."""
        fp = fingerprint(out_dir)
        key = json.dumps(fp, sort_keys=True)
        if key not in self.verdicts:  # the verdict depends only on the bytes
            self.verdicts[key] = gates.check(self.workload, str(out_dir))
        found = list(self.verdicts[key])
        if self.reference is None:
            self.reference = fp
        elif fp != self.reference:
            changed = sorted(k for k in fp.keys() | self.reference.keys()
                             if fp.get(k) != self.reference.get(k))
            found.append(f"same-seed artifacts differ: {changed}")
        if not found and self.self_test_escapes is None:
            self.self_test_escapes = gates.self_test(
                self.workload, str(out_dir), str(OUT / "doctored"))
        return found


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    try:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "default"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_untraced(run: Run, seconds: float):
    """Samples until the next one would end after `seconds`, at least
    MIN_SAMPLES of them; returns (attempted, failed, failures, samples,
    median metrics)."""
    samples, failures, durations, failed = [], [], [], 0
    start = time.monotonic()
    while len(durations) < MIN_SAMPLES or (
            time.monotonic() - start + statistics.median(durations) <= seconds):
        i = len(durations)
        out = OUT / run.workload / f"sample-{i}"
        t0 = time.monotonic()
        record, problems = run.child(f"sample {i}", "sample.py", out)
        durations.append(time.monotonic() - t0)
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)
        failed += bool(problems)
        failures += problems
        if record is not None:
            samples.append(record)
    metrics = {}
    if samples:
        metrics = {name: statistics.median(s[name] for s in samples)
                   for name in END_TO_END}
    return len(durations), failed, failures, samples, metrics


def run_traced(run: Run):
    """One untraced sample, then one traced run; returns as run_untraced."""
    untraced, failures = run.child("untraced", "sample.py",
                                   OUT / run.workload / "untraced")
    traced, problems = run.child(
        "traced", "tracer.py", OUT / run.workload / "traced",
        OUT / f"spans-{run.workload}-seed{run.seed}.jsonl")
    metrics = {}
    if traced is not None:
        problems += [f"traced: {p}" for p in traced["problems"]]
        metrics = traced["metrics"]
        if untraced is not None:
            metrics["harness.trace_overhead_ratio"] = (
                metrics["harness.run_s"] / untraced["wall_s"])
    failed = bool(failures) + bool(problems)
    return 2, failed, failures + problems, [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bohmlab" / "harness.py").is_file():
        print(f"no bohmlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be a non-negative integer", file=sys.stderr)
        return 2

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    (OUT / args.workload).mkdir(parents=True)
    run = Run(args.workload, args.seed)
    if args.trace:
        attempted, failed, failures, samples, measured = run_traced(run)
        units = LAYER_METRICS
    else:
        attempted, failed, failures, samples, measured = run_untraced(
            run, args.seconds)
        units = END_TO_END
    if not measured:
        print("\n".join(failures), file=sys.stderr)
        print("no sample completed; no metrics to report", file=sys.stderr)
        return 1
    escapes = run.self_test_escapes
    self_test_ok = escapes == []
    correct = failed == 0 and self_test_ok

    env = environment(args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={attempted} failed={failed}")
    for name, unit in units.items():
        print(f"  {name:40s} {measured[name]:>16.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:>16.6g} "
          f"failed/attempted ({failed}/{attempted})")
    if escapes is None:
        escapes = ["gate self-test did not run: no sample passed its gate"]
    for problem in failures + escapes:
        print(f"  FAIL {problem}")
    print("# env " + json.dumps(env, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": measured[name], "unit": unit}
                          for name, unit in units.items()}}
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "samples": samples,
                                  "failures": failures,
                                  "self_test_ok": self_test_ok,
                                  "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
