#!/usr/bin/env bash
# Builds the end-to-end benchmark into build-e2e/ and runs it.
#
# One run (the form BENCHMARK.json names; the last stdout line is the
# result JSON):
#   e2e/run.sh --workload build-p4 --seed 1 --seconds 15 --trace 0
#
# Every workload in its own process, fixed order (reversed on alternate
# sets), set i using seed+i; prints "workload metric value unit" lines,
# writes the results and a summary under build-e2e/results/:
#   e2e/run.sh --sets=2 [--seed=1] [--seconds=15] [--trace]
#
# Self-test at toy size (level 8), untraced and traced, well under 30 s:
#   e2e/run.sh --smoke
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="build-e2e"
workloads=(build-p4 build-p1t4 build-ooc serve-uniform serve-oracle)

workload="" seed=1 seconds=15 trace=0 sets=0 smoke=0
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) name="${arg%%=*}" value="${arg#*=}" ;;
    --trace|--smoke) name="$arg" value=1
      # --trace takes an optional 0/1 argument.
      if [[ "$arg" == --trace && $# -gt 0 && "$1" =~ ^[01]$ ]]; then
        value="$1"
        shift
      fi ;;
    --*) name="$arg" value="${1:?$arg needs a value}"; shift ;;
    *) echo "unexpected argument: $arg" >&2; exit 2 ;;
  esac
  case "$name" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --sets) sets="$value" ;;
    --smoke) smoke="$value" ;;
    *) echo "unknown flag: $name" >&2; exit 2 ;;
  esac
done

# The repository is built from source here; all build output goes to
# stderr so the result JSON stays the last line of stdout.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S e2e -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target retra_e2e -j "$(nproc)" >&2
bin="$build/retra_e2e"

run_one() {  # workload seed seconds trace(0|1) [extra flags...]
  local w="$1" s="$2" secs="$3" t="$4"
  shift 4
  local flags=(--workload="$w" --seed="$s" --seconds="$secs"
               --tmp-dir="$build/tmp")
  if [[ "$t" == 1 ]]; then
    mkdir -p "$build/traces"
    flags+=(--trace="$build/traces/$w.json")
  fi
  "$bin" "${flags[@]}" "$@"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$seed" "$seconds" "$trace"
  exit 0
fi

if [[ "$smoke" == 1 ]]; then
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      run_one "$w" "$seed" 1 "$t" --smoke > "$build/smoke.out"
      counts='s/.*"attempted":([0-9]+),"failed":([0-9]+).*/\1 attempted, \2 failed/'
      echo "$w (trace $t): ok, $(tail -n 1 "$build/smoke.out" | sed -E "$counts")"
    done
  done
  echo "smoke: every workload passed, untraced and traced"
  exit 0
fi

if [[ "$sets" -lt 1 ]]; then
  echo "usage: run.sh --workload W --seed N --seconds S --trace 0|1" >&2
  echo "       run.sh --sets=N [--seed=N] [--seconds=S] [--trace]" >&2
  echo "       run.sh --smoke" >&2
  exit 2
fi

results="$build/results"
rm -rf "$results"
mkdir -p "$results"
for ((set = 0; set < sets; set++)); do
  order=("${workloads[@]}")
  if ((set % 2 == 1)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
      order+=("${workloads[i]}")
    done
  fi
  for w in "${order[@]}"; do
    out="$results/set$set-$w.out"
    run_one "$w" $((seed + set)) "$seconds" 0 | tee "$out" | grep -v '^{'
    tail -n 1 "$out" > "$results/set$set-$w.json"
  done
done
if [[ "$trace" == 1 ]]; then
  for w in "${workloads[@]}"; do
    out="$results/traced-$w.out"
    run_one "$w" "$seed" "$seconds" 1 | tee "$out" | grep -v '^{'
    tail -n 1 "$out" > "$results/traced-$w.json"
  done
fi
python3 e2e/summarize.py "$results" BENCHMARK.json
