"""Benchmark driver: runs one workload for a fixed time and checks it.

    python3 perfbench/run.py --workload {oracles|hecke|duals|extension}
                             [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs the whole workload in a fresh interpreter
(child.py), so caches start cold as they do for every `qrwe` command.
Repetitions run one at a time until the next one would end after
`--seconds`; at least two run (one untraced and one traced pair with
`--trace 1`).  Each repetition also times its own setup: `import numpy`
plus `import qrwe`.

The shared host's speed drifts by up to a third over seconds to minutes.
So each repetition also times a fixed reference kernel before each of
its ops (workloads.reference_kernel), and `wall_s`, `cpu_s` and
`setup_s` are that repetition's times scaled to a host on which one
kernel call takes REF_CALL_S (`cpu_s` by the kernel's CPU time, the
others by its wall time).  The unscaled times are in the results file.

Every op is checked by its oracle or closed form and by the sha256 of
its canonical output against digests.json; any failure makes the run
exit 1.  With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones (untraced and traced repetitions
alternate, and their wall-time difference is the trace overhead; a
traced run of `oracles` or `duals` first runs that workload's ROADMAP
Baseline sizes once, for the Baseline cross-check).
The last line of standard output is the result as JSON; a results file
with provenance goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

WORKLOADS = ("oracles", "hecke", "duals", "extension")
# One thread everywhere: at these sizes the census and walk thread pools
# cost more than they gain, and two threads on a two-core shared host
# measure the scheduler.  The Baseline rows were taken with 2 threads.
THREADS = {"oracles": 1, "hecke": 1, "duals": 1, "extension": 1,
           "oracles-baseline": 2, "duals-baseline": 1}
BASELINE_RUNS = {"oracles": "oracles-baseline", "duals": "duals-baseline"}
RUN_LIMIT_S = 170  # every child is killed past this, so a run ends inside 180 s
# The median time of one reference_kernel() call on the reference host
# (2-core Xeon sandbox, Python 3.11).
REF_CALL_S = 0.019
SCALED = {"wall_s": "ref_s", "cpu_s": "ref_cpu_s", "setup_s": "ref_s"}

# ROADMAP Baseline rows (2-core sandbox, Python 3.11, numpy 2.4) that
# match an op of a workload.
BASELINE = {
    "quartic_census q=27": ("quartic_census q = 27 (2 threads)", 3.7),
    "brute_force_enumerator q=11 h=6": ("brute-force dual walk, q = 11", 2.7),
    "qrwe dual --q 1009 --max-codim 7": ("qrwe dual --q 1009 --max-codim 7 (CLI)", 1.3),
    "qr_dual_coefficients M=n q=23": ("qr_dual_coefficients at M = n, q = 23", 2.66),
    "qr_macwilliams_dual q=23": ("qr_macwilliams_dual, q = 23", 0.30),
}


class ChildFailed(RuntimeError):
    pass


def spawn(args, deadline):
    """Run child.py with `args`; returns its record plus peak RSS."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), repr(spawned_at)] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - spawned_at, 0.0), proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            output = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = output.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("child %s exited with %d:\n%s" % (args, proc.returncode, output))
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed("child %s printed no record:\n%s" % (args, output)) from None
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    record["elapsed_s"] = time.monotonic() - spawned_at
    return record


def host_speed(rep, clock="ref_s"):
    """How fast the host ran this repetition, against REF_CALL_S."""
    return REF_CALL_S * rep["ref_calls"] / rep[clock]


def scaled(rep, name):
    return rep[name] * host_speed(rep, SCALED[name])


def summary(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload, seed, seconds, rep):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": rep.get("numpy"),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "threads": THREADS,
        "qrwe_budget": rep.get("qrwe_budget"),
    }


def op_failures(rep, digests):
    """Problems per op: its own checks plus the digest comparison."""
    out = []
    for op in rep["ops"]:
        problems = list(op["problems"])
        if "digest" in op and digests.get(op["key"]) != op["digest"]:
            problems.append("digest %s does not match the recorded %s"
                            % (op["digest"], digests.get(op["key"])))
        out.append((op["key"], problems))
    return out


def measure(workload, seed, seconds, trace):
    """Run repetitions until `seconds` is used.  Returns the untraced
    (False) and traced (True) repetitions and the Baseline-size one."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    baseline = None
    if trace and workload in BASELINE_RUNS:
        name = BASELINE_RUNS[workload]
        baseline = spawn([name, str(seed), str(THREADS[name]), "0"], deadline)
    args = [str(seed), str(THREADS[workload])]
    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2
    reps, rounds = {mode: [] for mode in modes}, []
    while True:
        round_start = time.monotonic()
        for mode in modes:
            reps[mode].append(spawn([workload] + args + ["1" if mode else "0"], deadline))
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > seconds:
            return reps, baseline


def main(argv=None):
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qrwe" / "__init__.py").is_file():
        print("error: no qrwe sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())["ops"]

    try:
        reps, baseline = measure(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    all_reps = [rep for mode_reps in reps.values() for rep in mode_reps]
    checked = all_reps + ([baseline] if baseline else [])
    failures = [(key, problems) for rep in checked
                for key, problems in op_failures(rep, digests)]
    failed = sum(1 for _, problems in failures if problems)
    plain = reps[False]
    stats = {
        "wall_s": summary([scaled(r, "wall_s") for r in plain]),
        "cpu_s": summary([scaled(r, "cpu_s") for r in plain]),
        "setup_s": summary([scaled(r, "setup_s") for r in all_reps]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
    }
    unscaled = {name: summary([r[name] for r in plain]) for name in SCALED}
    unscaled["host_speed"] = summary([host_speed(r) for r in plain])
    op_seconds = {}
    for rep in plain:
        for op in rep["ops"]:
            op_seconds.setdefault(op["key"], []).append(op["compute_s"])
    op_stats = {key: summary(values) for key, values in op_seconds.items()}
    baseline_ops = {op["key"]: op["compute_s"] for op in baseline["ops"]} if baseline else {}

    if args.trace:
        traced = reps[True]
        layer_stats = {name: summary([r["layers"][name] for r in traced])
                       for name in traced[0]["layers"]}
        layer_stats["trace_overhead_s"] = summary(
            [scaled(t, "wall_s") - scaled(u, "wall_s") for t, u in zip(traced, plain)])
        listed, measured = bench["per_layer"], layer_stats
    else:
        layer_stats = None
        listed, measured = bench["end_to_end"], stats
    metrics = {m["name"]: {"value": measured[m["name"]]["median"], "unit": m["unit"]}
               for m in listed}

    report = {
        "provenance": provenance(args.workload, args.seed, args.seconds, all_reps[0]),
        "end_to_end": stats,
        "unscaled": unscaled,
        "fail_rate": failed / len(failures),
        "attempted": len(failures),
        "failed": failed,
        "failures": sorted({(key, "; ".join(problems)) for key, problems in failures
                            if problems}),
        "ops": op_stats,
        "baseline_ops": baseline_ops,
        "per_layer": layer_stats,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(report, indent=1) + "\n")

    print_report(report, args.trace)
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def print_report(report, trace):
    prov = report["provenance"]
    print("# %s seed=%d threads=%d nproc=%s cpu=%s python=%s numpy=%s commit=%s "
          "QRWE_BUDGET=%s" % (prov["workload"], prov["seed"], prov["threads"][prov["workload"]],
                              prov["nproc"], prov["cpu_model"], prov["python"], prov["numpy"],
                              prov["git_commit"], prov["qrwe_budget"]))
    rows = list(report["end_to_end"].items())
    rows += [("unscaled " + name, s) for name, s in report["unscaled"].items()]
    for name, s in rows:
        print("%-19s median %.4f  q1 %.4f  q3 %.4f  n=%d"
              % (name, s["median"], s["q1"], s["q3"], s["n"]))
    print("fail_rate      %d/%d = %.4f" % (report["failed"], report["attempted"],
                                           report["fail_rate"]))
    for key, problems in report["failures"]:
        print("FAILED %s: %s" % (key, problems))
    if not trace:
        return
    for name, s in report["per_layer"].items():
        print("%-38s median %.6g  n=%d" % (name, s["median"], s["n"]))
    for key, (row, seconds) in BASELINE.items():
        if key in report["baseline_ops"]:
            print("baseline %-40s %.2f s (ROADMAP: %s, %.2f s)"
                  % (key, report["baseline_ops"][key], row, seconds))


if __name__ == "__main__":
    sys.exit(main())
