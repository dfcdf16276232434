"""Acceptance gate: every headline claim of the package, one test per
criterion, each printing a single summary line.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.

Each criterion runs on one BLAS thread, as the validate task runs it, and
its validation_report.json entry, without its seconds, is pinned by digest
in tests/artifact_digests.json.
"""

import hashlib
import json

import pytest

from bohmlab import harness
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


def run_on_one_thread(cid):
    """run_criterion as the validate task runs it: OpenBLAS's eigh and
    products take other bits on more threads."""
    with harness._one_blas_thread():
        return run_criterion(cid)


def criterion_digest(result):
    """sha256 of a criterion's report entry without seconds, as sorted JSON."""
    entry = {key: value for key, value in result.items() if key != "seconds"}
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()


_RESULTS = {}  # criterion id -> test_acceptance_criterion's result


@pytest.mark.parametrize("cid", [name for name, _, _ in CRITERIA])
def test_acceptance_criterion(cid):
    result = _RESULTS[cid] = run_on_one_thread(cid)
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
    result = _RESULTS.get(cid) or run_on_one_thread(cid)
    assert criterion_digest(result) == pinned[cid]
