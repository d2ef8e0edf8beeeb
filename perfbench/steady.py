#!/usr/bin/env python3
"""Steadiness check: run one build as two interleaved sets and compare them.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--trace 0|1]
                                [--seconds S]

Run from the repository root. Run r of both sets uses the default seed of
seeds.json plus r, so the sets see the same inputs and the seed varies
within a set. The sets are interleaved run by run (A B, then B A, ...), so
a slow stretch of the host lands on both.

For each workload and metric it prints each set's median and quartiles,
the spread (interquartile distance over the median) and the gap between
the set medians (their distance over set A's median), each as a share,
next to the metric's bound from BENCHMARK.json. Every gap must stay within
the bound, and so must every spread but setup_s's, which is printed but not
gated (see METRICS.md); a spread above a third of its bound is marked.
Every exact metric must repeat for a seed across the sets: verdict_accuracy,
and with --trace 1 every exact per-layer count, which is then the whole
check. Exit status 1 when a check fails. Raw results go to
.bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are host times, not exact counts.
TIMED_LAYER_METRICS = ("sim.ns_per_event", "monitor.us_per_sample.",
                       "stats.tuner_us_per_sample", "obs.sink_ms",
                       "obs.ns_per_line", "harness.", "self_ms.",
                       "trace.overhead_pct", "stage.sampler.ms",
                       "stage.tuner.ms", "stage.judge.ms", "stage.filter.ms",
                       "stage.identifier.ms")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: " + " ".join(cmd))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    host = [l for l in out.stdout.splitlines() if l.startswith("# host:")]
    result["host"] = host[0][2:] if host else ""
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def exact_metric(name, trace):
    """Whether a metric is exact for a seed (else it is a host time)."""
    if trace:
        return not name.startswith(TIMED_LAYER_METRICS)
    return name == "verdict_accuracy"


def report(results, specs, trace, seed0):
    """Print the comparison of the two sets; return whether every check
    passed."""
    ok = True
    for workload, sets in results.items():
        if not all(res["correct"] for runs in sets for res in runs):
            print("FAIL %s: a run reported correct=false" % workload)
            ok = False
        print("\n%s" % workload)
        for name in (spec["name"] for spec in specs):
            if not exact_metric(name, trace):
                continue
            for r, pair in enumerate(zip(*sets)):
                vals = {res["metrics"][name]["value"] for res in pair}
                if len(vals) > 1:
                    print("FAIL %s %s differs across sets for seed %d: %s"
                          % (workload, name, seed0 + r, sorted(vals)))
                    ok = False
        print("  exact metrics compared across 2 sets x %d seeds"
              % len(sets[0]))
        if trace:
            continue
        print("  %-18s %-4s %12s %12s %12s %8s %8s %7s  %s"
              % ("metric", "set", "q1", "median", "q3", "spread", "gap",
                 "bound", "verdict"))
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [res["metrics"][name]["value"] for res in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                gap = abs(q2 - medians[0]) / medians[0] if medians[0] else 0.0
                verdict = "ok"
                if spread > bound / 3:
                    verdict = "spread>bound/3"
                if spread > bound and name == "setup_s":
                    verdict = "spread>bound (not gated)"
                elif spread > bound:
                    verdict, ok = "SPREAD>BOUND", False
                if gap > bound:
                    verdict, ok = "GAP>BOUND", False
                print("  %-18s %-4s %12.6g %12.6g %12.6g %8.4f %8.4f %7.3f  %s"
                      % (name if s == 0 else "", "AB"[s], q1, q2, q3, spread,
                         gap, bound, verdict))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "seeds.json")) as f:
        seed0 = json.load(f)["default_seed"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    specs = bench["per_layer" if args.trace else "end_to_end"]

    results = {}  # workload -> [set A runs, set B runs]
    for workload in args.workloads.split(","):
        results[workload] = [[], []]
        for r in range(args.runs):
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                t0 = time.time()
                res = run_once(workload, seed0 + r, args.seconds, args.trace)
                results[workload][s].append(res)
                print("# %s run %d set %s seed %d: %.0f s, correct=%s "
                      "failed=%d/%d; %s"
                      % (workload, r, "AB"[s], seed0 + r, time.time() - t0,
                         res["correct"], res["failed"], res["attempted"],
                         res["host"]), flush=True)

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady-%s-trace%d.json"
                        % (time.strftime("%Y%m%d-%H%M%S"), args.trace))
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print("# raw results: " + path)

    ok = report(results, specs, args.trace, seed0)
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
