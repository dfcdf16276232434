"""One benchmark sample: a fresh interpreter runs one task like a CLI user.

    python3 perfbench/sample.py WORKLOAD SEED OUT_DIR SPAWNED_AT

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, the bohmlab/numpy/scipy imports and parse_config.
Prints one JSON line with the sample's timings.
"""

import json
import resource
import sys
import time

from workloads import scenario


def main(workload: str, seed: str, out_dir: str, spawned_at: str) -> None:
    from bohmlab import harness

    config = harness.parse_config(json.dumps(scenario(workload, int(seed))))
    setup_s = time.monotonic() - float(spawned_at)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    harness.run(config, out_dir, threads=1)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                      "peak_rss_mb": peak_kib * 1024 / 1e6}))


if __name__ == "__main__":
    main(*sys.argv[1:])
