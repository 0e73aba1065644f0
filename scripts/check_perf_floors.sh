#!/usr/bin/env bash
# Perf-floor guard over a benchmark JSONL file (default: the committed
# BENCH_partitioner.json). The file's rows decide which floors apply — with
# generous margins, since absolute timings vary wildly across runners:
#
#   partitioner files (a partitioner_speed_summary row):
#   1. partitioner_speed_summary: the cold-solve geomean speedup of the exact
#      tier (SolveScalable with strategy kExact) over the test oracle
#      oracles::SolveReference (tests/oracles/) stays above a floor (default
#      4x; the committed
#      trajectory records ~11x), every point stayed bit-identical, and the
#      warm-solve scratch never grew.
#   2. partitioner_growth g16: the forced-beam bottleneck stays within 1.25x
#      of the exact optimum (the committed run records exactly 1.0).
#   3. partitioner_parallel (when present): every pooled solve stayed
#      bit-identical to its serial twin.
#
#   store files (a "bench":"store" row from store_bench):
#   4. the .hds store stays at least --store-ratio-floor (default 1.5x)
#      smaller than the equivalent JSONL (the committed run records ~4.6x),
#      and the read-back rows were identical to what was written.
#
# A file with neither row kind fails loudly — a floor check that silently
# checks nothing is worse than none.
#
# Usage: check_perf_floors.sh [FILE] [--geomean-floor=X] [--store-ratio-floor=X]
#
# CI runs this twice per file: hard on the committed file (a bad commit fails
# the build) and advisory (continue-on-error) on a freshly produced run, so a
# slow shared runner cannot fail the build but a real regression is loud in
# the log. Exit 0 when every floor holds, 1 otherwise.
set -u

file="BENCH_partitioner.json"
geomean_floor="4.0"
store_ratio_floor="1.5"
for arg in "$@"; do
  case "$arg" in
    --geomean-floor=*) geomean_floor="${arg#*=}" ;;
    --store-ratio-floor=*) store_ratio_floor="${arg#*=}" ;;
    --*) echo "unknown flag: $arg" >&2; exit 2 ;;
    *) file="$arg" ;;
  esac
done
if [ ! -r "$file" ]; then
  echo "error: cannot read $file" >&2
  exit 2
fi

fail=0

# Pulls "key":value off a JSONL line (numbers, bools, or quoted strings).
field() {  # $1=line $2=key
  printf '%s\n' "$1" | grep -o "\"$2\":[^,}]*" | head -n1 | cut -d: -f2- | tr -d '"'
}

summary=$(grep '"bench":"partitioner_speed_summary"' "$file" | tail -n1)
store=$(grep '"bench":"store"' "$file" | tail -n1)
if [ -z "$summary" ] && [ -z "$store" ]; then
  echo "FLOOR: no partitioner_speed_summary or store row in $file — nothing to check" >&2
  fail=1
fi
if [ -n "$summary" ]; then
  geomean=$(field "$summary" resnet152_paper_speedup_geomean)
  identical=$(field "$summary" all_identical)
  grows=$(field "$summary" scratch_grows_warm)
  if ! awk -v g="$geomean" -v f="$geomean_floor" 'BEGIN { exit !(g+0 >= f+0) }'; then
    echo "FLOOR: cold-solve speedup geomean $geomean below floor $geomean_floor" >&2
    fail=1
  fi
  if [ "$identical" != "true" ]; then
    echo "FLOOR: summary reports non-identical solve results" >&2
    fail=1
  fi
  if [ "$grows" != "0" ]; then
    echo "FLOOR: warm-solve scratch grew $grows time(s)" >&2
    fail=1
  fi
fi

g16=$(grep '"bench":"partitioner_growth"' "$file" | grep '"case":"g16-2rack"' | tail -n1)
if [ -n "$g16" ]; then
  ratio=$(field "$g16" beam_over_exact)
  if [ -z "$ratio" ] ||
     ! awk -v r="$ratio" 'BEGIN { exit !(r+0 >= 1.0 && r+0 <= 1.25) }'; then
    echo "FLOOR: g16-2rack beam_over_exact '${ratio:-missing}' outside [1.0, 1.25]" >&2
    fail=1
  fi
fi

while IFS= read -r row; do
  [ -z "$row" ] && continue
  if [ "$(field "$row" identical)" != "true" ]; then
    echo "FLOOR: parallel solve diverged from serial: $row" >&2
    fail=1
  fi
done < <(grep '"bench":"partitioner_parallel"' "$file" || true)

while IFS= read -r row; do
  [ -z "$row" ] && continue
  if [ "$(field "$row" thread_identical)" != "true" ]; then
    echo "FLOOR: width-sweep pooled solve diverged from serial: $row" >&2
    fail=1
  fi
done < <(grep '"bench":"partitioner_width_sweep"' "$file" || true)

if [ -n "$store" ]; then
  ratio=$(field "$store" jsonl_over_store)
  roundtrip=$(field "$store" roundtrip_identical)
  if [ -z "$ratio" ] ||
     ! awk -v r="$ratio" -v f="$store_ratio_floor" 'BEGIN { exit !(r+0 >= f+0) }'; then
    echo "FLOOR: store size ratio '${ratio:-missing}' below floor ${store_ratio_floor}x" >&2
    fail=1
  fi
  if [ "$roundtrip" != "true" ]; then
    echo "FLOOR: store round trip was not identical" >&2
    fail=1
  fi
fi

if [ "$fail" -eq 0 ]; then
  echo "perf floors hold in $file"
fi
exit "$fail"
