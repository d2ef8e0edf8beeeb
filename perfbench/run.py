#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only check that the build is current. The workload then runs in its own
process with one worker thread. Before and after it, a separate probe
process times a dependent-load chain over a buffer larger than the
last-level cache; that and the load average are printed as a host
diagnostic, which no gate reads.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics,
each labelled with the unit given there. With --trace 1 the traced pass's
spans are also written as Chrome-trace JSON under .bench_build/traces/.
Any build failure, crash, timeout or missing metric exits non-zero without
printing a result.

The default seed is the one seeds.json names. For a seed recorded there,
every exact metric the run reports is compared with the recorded value and
each difference is printed; a different verdict (verdict_accuracy or a
detect.* metric) makes the result incorrect.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SEEDS = os.path.join(HERE, "seeds.json")
WORKLOAD_TIMEOUT_S = 150
# Exact metrics that are the detector's verdicts, not work counts.
VERDICT_METRICS = ("verdict_accuracy", "detect.accuracy",
                   "detect.false_positive_rate", "detect.response_delay_s")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(what + " printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(what + " did not end with a JSON line")


def probe():
    out = subprocess.run([BINARY, "--probe"], capture_output=True, text=True,
                         timeout=60)
    if out.returncode != 0:
        fail("host probe failed: " + out.stderr.strip())
    return last_json_line(out.stdout, "host probe")


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def check_recorded(recorded, metrics):
    """Print every exact metric that differs from its recorded value and
    return whether the verdicts all match."""
    verdicts_match = True
    for name, want in sorted(recorded.items()):
        got = metrics.get(name)
        if got is None or got == want:  # counts exist only in traced runs
            continue
        verdict = name in VERDICT_METRICS
        verdicts_match = verdicts_match and not verdict
        print("# seeds.json: %s is %r, recorded %r%s"
              % (name, got, want, " (a verdict: incorrect)" if verdict else ""))
    return verdicts_match


def main():
    with open(SEEDS) as f:
        seeds = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=seeds["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    specs = metric_specs(args.trace)
    build()

    load = os.getloadavg()
    before = probe()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.trace.json" % (args.workload, args.seed))]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s ran past %d s" % (args.workload, WORKLOAD_TIMEOUT_S))
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail("workload %s exited with %d" % (args.workload, out.returncode))
    raw = last_json_line(out.stdout, "workload " + args.workload)
    after = probe()

    for line in out.stdout.splitlines()[:-1]:
        print(line)
    print("# host: nproc=%d loadavg=%.2f/%.2f/%.2f probe_ns_per_load "
          "before=%.1f after=%.1f (%d MiB chase)"
          % (os.cpu_count() or 0, load[0], load[1], load[2],
             before["ns_per_load"], after["ns_per_load"],
             before["buffer_mib"]))

    metrics = {}
    for spec in specs:
        value = raw["metrics"].get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("workload %s did not report metric %s"
                 % (args.workload, spec["name"]))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print("# %-34s %16.6g %s" % (spec["name"], value, spec["unit"]))

    recorded = seeds["exact"].get(str(args.seed), {}).get(args.workload, {})
    verdicts_match = check_recorded(recorded, raw["metrics"])

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    result = {
        "correct": bool(raw["correct"]) and failed == 0 and attempted > 0
                   and verdicts_match,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
