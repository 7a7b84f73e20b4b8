"""Steadiness check: do two independent sets of runs of one commit agree?

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads oracles,hecke,duals,extension]

Each set makes `--runs` untraced runs of every workload through run.py,
interleaving the workloads (run i of every workload, then run i + 1),
with seed i for run i.  For each workload and end-to-end metric it
reports every set's median and quartile spread ((q3 - q1) / median), and
whether each later set's median stays within the metric's bound of the
first set's.  The bounds in BENCHMARK.json were set from this report:
a spread should stay below a third of its bound.  The report, with
provenance, is written to perfbench/results/steadiness.json; the exit
code is 1 if any run failed or any comparison disagrees.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {(s, w, m): [] for s in range(args.sets) for w in workloads for m in bounds}
    failures = 0
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                start = time.monotonic()
                metrics = one_run(w, i, args.seconds)
                if metrics is None:
                    failures += 1
                    continue
                for m in bounds:
                    values[(s, w, m)].append(metrics[m]["value"])
                print("set %d run %d %-9s %5.1f s  %s" % (
                    s, i, w, time.monotonic() - start,
                    "  ".join("%s=%.4f" % (m, metrics[m]["value"]) for m in bounds)),
                    flush=True)

    rows, agree = [], failures == 0
    for w in workloads:
        for m, bound in bounds.items():
            sets = []
            for s in range(args.sets):
                data = values[(s, w, m)]
                if len(data) < 2:
                    agree = False
                    continue
                q1, median, q3 = statistics.quantiles(data, n=4)
                sets.append({"median": median, "spread": (q3 - q1) / median, "n": len(data)})
            worse = [(later["median"] - sets[0]["median"]) / sets[0]["median"]
                     for later in sets[1:]] if sets else []
            ok = all(x <= bound for x in worse)
            steady = m == "setup_s" or all(x["spread"] <= bound / 3 for x in sets)
            agree = agree and ok
            rows.append({"workload": w, "metric": m, "bound": bound, "sets": sets,
                         "worse_by": worse, "agree": ok, "spread_below_third": steady})
            print("%-9s %-11s bound %.2f  %s  worse_by %s  %s%s" % (
                w, m, bound,
                "  ".join("med %.4f spread %.3f" % (x["median"], x["spread"]) for x in sets),
                " ".join("%+.3f" % x for x in worse), "agree" if ok else "DISAGREE",
                "" if steady else "  (spread above bound/3)"))

    report = {"provenance": {"nproc": os.cpu_count(), "cpu_model": run.cpu_model(),
                             "python": platform.python_version(),
                             "git_commit": run.git_commit(), "threads": run.THREADS,
                             "runs": args.runs, "sets": args.sets, "seconds": args.seconds},
              "failures": failures, "rows": rows,
              "values": [{"set": s, "workload": w, "metric": m, "values": v}
                         for (s, w, m), v in values.items()]}
    run.RESULTS.mkdir(exist_ok=True)
    (run.RESULTS / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
