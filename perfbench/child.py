"""One repetition in a fresh interpreter, so every cache starts cold.

    python3 perfbench/child.py SPAWNED_AT WORKLOAD SEED THREADS TRACE

SPAWNED_AT is the parent's time.monotonic() just before the spawn, so
setup time runs from spawn until `import numpy` and `import qrwe` end.
Prints one JSON record as the last line of standard output.
"""

import os
import sys
import time

SPAWNED_AT = float(sys.argv[1])
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import qrwe  # noqa: E402

SETUP_S = time.monotonic() - SPAWNED_AT

import json  # noqa: E402
import resource  # noqa: E402


def main(argv):
    if not os.path.abspath(qrwe.__file__).startswith(SRC + os.sep):
        raise SystemExit("qrwe imported from %s, not from %s" % (qrwe.__file__, SRC))
    workload, seed, threads, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"

    import workloads

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.install()
    rep = workloads.Rep(seed, threads)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    workloads.WORKLOADS[workload](rep)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    record = {
        "setup_s": SETUP_S,
        "wall_s": wall - rep.ref_s,
        "cpu_s": cpu - rep.ref_cpu_s,
        "ref_s": rep.ref_s,
        "ref_cpu_s": rep.ref_cpu_s,
        "ref_calls": rep.ref_calls,
        "ops": rep.ops,
        "numpy": numpy.__version__,
        "qrwe_budget": os.environ.get("QRWE_BUDGET", qrwe.rs_codes.DEFAULT_BUDGET),
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[2:])
