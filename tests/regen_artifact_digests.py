"""Write tests/artifact_digests.json: the sha256 of every artifact of each
SAME_SEED and FROZEN config in tests/test_harness.py and of each acceptance
criterion's report entry without seconds, and the environment they were
made in.  TestRun::test_artifact_digests, TestRun::test_frozen_run_digests
and test_acceptance.py::test_criterion_digest check them.

Run it from the repository root after a change that moves an artifact's
bits on purpose, and name the moved digests and the reason in CHANGES.md:

    PYTHONPATH=src python tests/regen_artifact_digests.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import criterion_digest  # noqa: E402
from test_harness import (DIGESTS, FROZEN, SAME_SEED,  # noqa: E402
                          artifact_digests, environment, run_artifacts)

from bohmlab.validation import CRITERIA, run_criterion  # noqa: E402


def task_digests(docs, tmp):
    return {doc["task"]["name"]: artifact_digests(
        *run_artifacts(doc, tmp / doc["task"]["name"])) for doc in docs}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        digests = task_digests(SAME_SEED, Path(tmp) / "same-seed")
        frozen = task_digests(FROZEN, Path(tmp) / "frozen")
    criteria = {cid: criterion_digest(run_criterion(cid))
                for cid, _, _ in CRITERIA}
    DIGESTS.write_text(json.dumps({"environment": environment(),
                                   "digests": digests, "frozen": frozen,
                                   "criteria": criteria},
                                  indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
