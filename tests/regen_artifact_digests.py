"""Write tests/artifact_digests.json: the sha256 of every artifact of each
SAME_SEED config in tests/test_harness.py, and the environment they were
made in.  TestRun::test_artifact_digests checks them.

Run it from the repository root after a change that moves an artifact's
bits on purpose, and name the moved digests and the reason in CHANGES.md:

    PYTHONPATH=src python tests/regen_artifact_digests.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from test_harness import (DIGESTS, SAME_SEED, artifact_digests,  # noqa: E402
                          environment, run_artifacts)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        digests = {doc["task"]["name"]: artifact_digests(
            *run_artifacts(doc, Path(tmp) / doc["task"]["name"]))
            for doc in SAME_SEED}
    DIGESTS.write_text(json.dumps({"environment": environment(),
                                   "digests": digests},
                                  indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
