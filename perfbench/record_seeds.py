#!/usr/bin/env python3
"""Record the exact metrics of the default and held-out seeds.

    python3 perfbench/record_seeds.py [SECONDS]

Run from the repository root. For each seed in seeds.json and each workload,
it runs the benchmark once with --trace 0 and once with --trace 1, keeps
every metric that is exact for a seed (verdict_accuracy, the detect.*
verdict metrics and the per-layer counts), and writes them back into
perfbench/seeds.json. A later change can then be re-checked on the held-out
seed, which was not used while the benchmark was built. Rerun it after a
change that is meant to alter verdicts: run.py counts a verdict that differs
from this record as incorrect.
"""

import json
import os
import sys

from steady import HERE, ROOT, exact_metric, run_once

SEEDS = os.path.join(HERE, "seeds.json")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(SEEDS) as f:
        record = json.load(f)
    # Exact metrics do not depend on how long the timed passes run.
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else bench["run_seconds"]
    record["exact"] = {}
    for seed in (record["default_seed"], record["held_out_seed"]):
        per_seed = record["exact"][str(seed)] = {}
        for workload in (w["name"] for w in bench["workloads"]):
            values = {}
            for trace in (0, 1):
                res = run_once(workload, seed, seconds, trace)
                # Not res["correct"]: that also compares with the old record.
                if res["failed"]:
                    sys.exit("%s seed %d: %d trial runs failed"
                             % (workload, seed, res["failed"]))
                values.update({k: v["value"] for k, v in res["metrics"].items()
                               if exact_metric(k, trace)})
            per_seed[workload] = dict(sorted(values.items()))
            print("# recorded %s seed %d" % (workload, seed), flush=True)
    with open(SEEDS, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
