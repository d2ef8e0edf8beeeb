#!/usr/bin/env bash
# Argument contract shared by the bench binaries (bench::parse_jobs): an
# unknown argument prints usage and exits 2 at once instead of starting a
# campaign, --help/-h prints usage and exits 0, and a binary's own flags
# (bench_perf's --quick/--out) are let through to it.
# Usage: bench_args_test.sh /path/to/bench_scalability_monitors /path/to/bench_perf
set -u

BENCH=${1:?usage: bench_args_test.sh BENCH_BINARY BENCH_PERF_BINARY}
PERF=${2:?usage: bench_args_test.sh BENCH_BINARY BENCH_PERF_BINARY}
fail=0

# expect CODE NEEDLE -- COMMAND...: COMMAND exits CODE within a second and
# its combined output contains NEEDLE.
expect() {
  local code=$1 needle=$2
  shift 3
  local out rc
  out=$(timeout 1 "$@" 2>&1)
  rc=$?
  if [ "$rc" -ne "$code" ]; then
    echo "FAIL: '$*' exited $rc, expected $code" >&2
    echo "$out" | head -5 >&2
    fail=1
  elif ! grep -q -- "$needle" <<< "$out"; then
    echo "FAIL: '$*' output lacks '$needle'" >&2
    echo "$out" | head -5 >&2
    fail=1
  else
    echo "ok: $(basename "$1") ${*:2} -> $rc"
  fi
}

expect 2 "unknown argument '--bogus'" -- "$BENCH" --bogus
expect 2 "unknown argument '--job'" -- "$BENCH" --job 2
expect 2 "--jobs needs a value" -- "$BENCH" --jobs
expect 2 "unknown argument 'extra'" -- "$BENCH" --jobs 2 extra
expect 0 "usage:" -- "$BENCH" --help
expect 0 "--metrics-out FILE" -- "$BENCH" -h
# bench_perf's own flags are known to the parser: they show in its usage,
# and an unknown flag after them still stops the binary before it runs.
expect 0 "\[--out VALUE\]" -- "$PERF" --help
expect 2 "unknown argument '--bogus'" -- "$PERF" --quick --out x.json --bogus
expect 2 "--out needs a value" -- "$PERF" --quick --out

exit $fail
