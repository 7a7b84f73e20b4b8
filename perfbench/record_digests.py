"""Record the sha256 of every op's canonical output into digests.json.

    python3 perfbench/record_digests.py

Runs each workload once per seed in 0..SEEDS-1, which covers every
entry of every prime band in workloads.py, and each `*-baseline` entry
(which has no band) once; it refuses to record if any
oracle or closed-form check fails or if one op key gives two digests.
Run it only when an output is meant to change; the digests are the
bit-identical-output gate of every later run.
"""

import json
import sys
import time

import run

SEEDS = 5  # the longest band in workloads.BANDS


def main():
    digests = {}
    for workload in run.WORKLOADS + tuple(run.BASELINE_RUNS.values()):
        for seed in range(SEEDS) if workload in run.WORKLOADS else (0,):
            rep = run.spawn([workload, str(seed), str(run.THREADS[workload]), "0"],
                            time.monotonic() + run.RUN_LIMIT_S)
            for op in rep["ops"]:
                if op["problems"]:
                    sys.exit("%s seed %d: %s: %s" % (workload, seed, op["key"], op["problems"]))
                if "digest" not in op:
                    continue
                if digests.setdefault(op["key"], op["digest"]) != op["digest"]:
                    sys.exit("%s gave two digests" % op["key"])
            print("recorded %s seed %d" % (workload, seed), flush=True)
    run.DIGESTS.write_text(json.dumps({"ops": dict(sorted(digests.items()))}, indent=1) + "\n")


if __name__ == "__main__":
    main()
