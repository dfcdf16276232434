"""Acceptance gate: every headline claim of the package, one test per
criterion, each printing a single summary line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.

run_criterion runs each criterion on one BLAS thread, and its
validation_report.json entry, without its seconds, is pinned by digest in
tests/artifact_digests.json.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bohmlab import blas
from bohmlab.validation import CRITERIA, run_criterion
from test_harness import pinned_digests

# (target, tolerance, comparison) of each criterion, written out so that a
# change which moves a measured value cannot move the bar it is judged by.
PINNED = {
    "one-time-apparatus-independence": (0.0, 1e-6, "<="),
    "eigenstate-factorization": (0.0, 1e-6, "<="),
    "ideal-weak-convergence": (-2.0, 0.2, "abs"),
    "contextuality-witness": (1e-5, 0.0, ">"),
    "operational-matches-aav": (0.0, 0.02, "<="),
    "ancilla-moment-identities": (0.0, 1e-8, "<="),
    "perturbation-crossover": (1.0, 4.0, "factor"),
    "equilibrium-and-trajectories": (0.0, 0.05, "<"),
    "energy-decomposition": (0.0, 1e-6, "<="),
    "work-properties": (0.0, 3.0, "<="),
    "dwell-triple-agreement": (0.0, 0.02, "<="),
    "psd-sanity": (0.0, 1e-8, "<="),
}


def criterion_digest(result):
    """sha256 of a criterion's report entry without seconds, as sorted JSON."""
    entry = {key: value for key, value in result.items() if key != "seconds"}
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()


_RESULTS = {}  # criterion id -> test_acceptance_criterion's result


@pytest.mark.parametrize("cid", [name for name, _, _ in CRITERIA])
def test_acceptance_criterion(cid):
    result = _RESULTS[cid] = run_criterion(cid)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] {cid}: measured={result['measured']:.6g} "
          f"target={result['target']:.6g} tol={result['tolerance']:.6g} "
          f"({result['seconds']:.2f}s)")
    target, tolerance, comparison = PINNED[cid]
    # contextuality-witness computes its target as 10 * 1e-6
    assert result["target"] == pytest.approx(target, rel=1e-12, abs=0.0)
    assert result["tolerance"] == tolerance
    assert result["comparison"] == comparison
    assert result["passed"], (
        f"{cid}: measured {result['measured']} vs target {result['target']} "
        f"+- {result['tolerance']} (detail: {result.get('detail')})")


@pytest.mark.parametrize("cid", [name for name, _, _ in CRITERIA])
def test_criterion_digest(cid):
    # every measured value and detail keeps its bits, on the environment
    # whose bits were pinned; reuses test_acceptance_criterion's run
    pinned = pinned_digests("criteria")
    result = _RESULTS.get(cid) or run_criterion(cid)
    assert criterion_digest(result) == pinned[cid]


# numpy first, so OpenBLAS loads with its own thread count (one per CPU)
NUMPY_FIRST = """import json, numpy
from bohmlab.validation import run_criterion
print(json.dumps(run_criterion("work-properties")))
"""


@pytest.mark.skipif(not blas._openblas_libraries(),
                    reason="numpy is not linked against OpenBLAS")
def test_criterion_bits_independent_of_import_order():
    # work-properties diagonalises a Hamiltonian (eigh), whose bits follow
    # OpenBLAS's thread count; run_criterion pins it to one thread, so a
    # process that loaded numpy first gets the pinned digest too
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", NUMPY_FIRST], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert criterion_digest(result) == pinned_digests("criteria")[
        "work-properties"]
