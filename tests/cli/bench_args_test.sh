#!/usr/bin/env bash
# Argument contract shared by the bench binaries (bench::parse_jobs): an
# unknown argument prints usage and exits 2 at once instead of starting a
# campaign, --help/-h prints usage and exits 0, a binary's own flags
# (bench_fleet's --quick/--out) are let through to it, and --metrics-out
# writes a dump with the perf counters folded in.
# Usage: bench_args_test.sh /path/to/bench_scalability_monitors \
#          /path/to/bench_fleet /path/to/bench_recovery_policies
set -u

usage="usage: bench_args_test.sh BENCH_BINARY FLEET_BINARY RECOVERY_BINARY"
BENCH=${1:?$usage}
FLEET=${2:?$usage}
RECOVERY=${3:?$usage}
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
# bench_fleet's own flags are known to the parser: they show in its usage,
# and an unknown flag after them still stops the binary before it runs.
expect 0 "\[--out VALUE\]" -- "$FLEET" --help
expect 2 "unknown argument '--bogus'" -- "$FLEET" --quick --out x.json --bogus
expect 2 "--out needs a value" -- "$FLEET" --quick --out

# --metrics-out folds the process-wide perf counters into the dump, prefixed
# "perf.", next to the binary's own metrics.
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
if ! "$RECOVERY" --jobs 1 --metrics-out "$workdir/metrics.json" \
    > "$workdir/out.txt" 2>&1; then
  echo "FAIL: $(basename "$RECOVERY") --metrics-out exited non-zero" >&2
  tail -5 "$workdir/out.txt" >&2
  fail=1
elif ! grep -q '"perf.sim.events_fired"' "$workdir/metrics.json"; then
  echo "FAIL: --metrics-out dump lacks the folded perf counters" >&2
  head -c 500 "$workdir/metrics.json" >&2
  fail=1
else
  echo "ok: $(basename "$RECOVERY") --metrics-out folds perf.* counters"
fi

exit $fail
