#!/usr/bin/env python3
"""Same-host wall-clock A/B of the repository benchmark against a base commit.

    python3 .github/scripts/perfbench_ab.py BASE_CHECKOUT

Run from the repository root of the change. BASE_CHECKOUT is a checkout of
the base commit (a git worktree in CI); perfbench/run.py builds each side
from its own sources. For every workload BENCHMARK.json lists, the two
sides run PAIRS alternating pairs (base then change, then change then
base, ...) of --seconds SECONDS --trace 0 on the default seed, so a slow
stretch of the host lands on both. The change fails when its median
trials_per_s is below FLOOR times the base's, or when one of its runs is
not correct. A workload the base's BENCHMARK.json does not list is new and
is not compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
PAIRS = 3
SECONDS = 5
# A change more than 75% slower than its base fails; smaller shifts are
# left to the benchmark's own A/B, whose runs are long enough to see them.
FLOOR = 0.25


def workloads(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(checkout, workload):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("perfbench_ab: run failed in %s: %s" % (checkout,
                                                          " ".join(cmd)))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    args = parser.parse_args()
    base = os.path.abspath(args.base)

    failures = []
    base_workloads = workloads(base)
    for workload in workloads(ROOT):
        if workload not in base_workloads:
            print("== %s: new in this change, not compared" % workload)
            continue
        rates = {base: [], ROOT: []}
        for pair in range(PAIRS):
            order = (base, ROOT) if pair % 2 == 0 else (ROOT, base)
            for checkout in order:
                result = run(checkout, workload)
                if checkout == ROOT and not result["correct"]:
                    failures.append("%s: change run %d not correct (failed=%d)"
                                    % (workload, pair, result["failed"]))
                rates[checkout].append(
                    result["metrics"]["trials_per_s"]["value"])
        base_median = statistics.median(rates[base])
        change_median = statistics.median(rates[ROOT])
        ratio = change_median / base_median
        print("== %s trials_per_s: base %s median %.4g, change %s median "
              "%.4g, ratio %.3f (floor %.2f)"
              % (workload, ["%.4g" % r for r in rates[base]], base_median,
                 ["%.4g" % r for r in rates[ROOT]], change_median, ratio,
                 FLOOR))
        if ratio < FLOOR:
            failures.append("%s: change median trials_per_s is %.3f x the "
                            "base's, below the %.2f floor"
                            % (workload, ratio, FLOOR))
    for failure in failures:
        print("perfbench_ab: " + failure, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
