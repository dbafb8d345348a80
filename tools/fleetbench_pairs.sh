#!/usr/bin/env bash
# Alternating paired runs of two pre-built fleetbench binaries.
#
#   tools/fleetbench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N [FLEETBENCH_ARGS...]
#
# Runs N pairs of `fleetbench --workload WORKLOAD [FLEETBENCH_ARGS...]`, one
# run of each binary per pair, alternating which one goes first (the parent
# on odd pairs, the change on even ones) so that a host whose speed drifts
# does not favour either side. Prints each pair's run_s and
# tenant_epochs_per_s, then each side's median and quartiles and how many
# pairs the change won on each metric (lower run_s, higher
# tenant_epochs_per_s). A run that reports a failed check stops the script.
#
# Its last line is a JSON object for the fleetbench ledger
# (crates/bench/BENCH_fleetbench.json, one line per workload of each perf
# change): record, commit, parent, nproc, workload, seconds (the --seconds
# argument, or null), pairs, the pairs the change won on each metric, and
# each side's p25, median and p75 of both metrics. commit and parent name
# the two builds; the script cannot tell which sources a binary was built
# from, so they are $COMMIT and $PARENT, or "unknown" when unset.
#
# Build each checkout once into its own target directory, for example
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \
#       --manifest-path fleetbench/Cargo.toml
# and pass the two `release/fleetbench` executables. Durable workloads keep
# their stores under $CARGO_TARGET_DIR (default fleetbench/target), so run
# from the repository root or set CARGO_TARGET_DIR. Example:
#   tools/fleetbench_pairs.sh /tmp/parent/release/fleetbench \
#       /tmp/change/release/fleetbench resolve-1k 10 --seconds 8
set -euo pipefail

if [ "$#" -lt 4 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD N [FLEETBENCH_ARGS...]" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
shift 4

# One run: prints "run_s tenant_epochs_per_s" from fleetbench's last line.
run() {
  local bin=$1 out
  shift
  out=$("$bin" --workload "$workload" "$@" 2>/dev/null | tail -n 1) || true
  if ! echo "$out" | jq -e '.correct == true' >/dev/null 2>&1; then
    echo "a run of $bin failed its checks: $out" >&2
    exit 1
  fi
  echo "$out" | jq -r '"\(.metrics.run_s.value) \(.metrics.tenant_epochs_per_s.value)"'
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT

printf '%-5s %-6s %12s %22s\n' pair side run_s tenant_epochs_per_s
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    order=(parent change)
  else
    order=(change parent)
  fi
  for side in "${order[@]}"; do
    if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
    read -r run_s teps < <(run "$bin" "$@")
    printf '%-5s %-6s %12.4f %22.0f\n' "$i" "$side" "$run_s" "$teps"
    echo "$i $side $run_s $teps" >>"$results"
  done
done

seconds=null
args=("$@")
for ((k = 0; k + 1 < ${#args[@]}; k++)); do
  if [ "${args[k]}" = --seconds ]; then seconds=${args[k + 1]}; fi
done
header="{\"record\":\"fleetbench_pairs\",\"commit\":\"${COMMIT:-unknown}\""
header+=",\"parent\":\"${PARENT:-unknown}\",\"nproc\":$(nproc)"
header+=",\"workload\":\"$workload\",\"seconds\":$seconds"

# Median and quartiles (linear interpolation between order statistics) of
# one side's column, the pairs the change won, and the ledger line.
awk -v header="$header" '
function quantile(values, n, q,    sorted, i, j, t, pos, lo) {
  for (i = 1; i <= n; i++) sorted[i] = values[i]
  for (i = 2; i <= n; i++) {
    t = sorted[i]
    for (j = i - 1; j >= 1 && sorted[j] > t; j--) sorted[j + 1] = sorted[j]
    sorted[j + 1] = t
  }
  pos = 1 + (n - 1) * q
  lo = int(pos)
  if (lo >= n) return sorted[n]
  return sorted[lo] + (pos - lo) * (sorted[lo + 1] - sorted[lo])
}
{
  if ($2 == "parent") { pr[$1] = $3; pt[$1] = $4 } else { cr[$1] = $3; ct[$1] = $4 }
  if ($1 > n) n = $1
}
END {
  for (i = 1; i <= n; i++) {
    if (cr[i] < pr[i]) won_run++
    if (ct[i] > pt[i]) won_teps++
  }
  printf "\n%-6s %-20s %12s %12s %12s\n", "side", "metric", "p25", "median", "p75"
  printf "%-6s %-20s %12.4f %12.4f %12.4f\n", "parent", "run_s", quantile(pr, n, 0.25), quantile(pr, n, 0.5), quantile(pr, n, 0.75)
  printf "%-6s %-20s %12.4f %12.4f %12.4f\n", "change", "run_s", quantile(cr, n, 0.25), quantile(cr, n, 0.5), quantile(cr, n, 0.75)
  printf "%-6s %-20s %12.0f %12.0f %12.0f\n", "parent", "tenant_epochs_per_s", quantile(pt, n, 0.25), quantile(pt, n, 0.5), quantile(pt, n, 0.75)
  printf "%-6s %-20s %12.0f %12.0f %12.0f\n", "change", "tenant_epochs_per_s", quantile(ct, n, 0.25), quantile(ct, n, 0.5), quantile(ct, n, 0.75)
  printf "\nthe change won %d of %d pairs on run_s and %d of %d on tenant_epochs_per_s\n", won_run, n, won_teps, n
  printf "median change: run_s %+.1f%%, tenant_epochs_per_s %+.1f%%\n", \
    100 * (quantile(cr, n, 0.5) / quantile(pr, n, 0.5) - 1), 100 * (quantile(ct, n, 0.5) / quantile(pt, n, 0.5) - 1)
  printf "%s,\"pairs\":%d,\"won_run_s\":%d,\"won_tenant_epochs_per_s\":%d", header, n, won_run + 0, won_teps + 0
  printf ",\"parent_run_s_p25\":%.6f,\"parent_run_s_median\":%.6f,\"parent_run_s_p75\":%.6f", \
    quantile(pr, n, 0.25), quantile(pr, n, 0.5), quantile(pr, n, 0.75)
  printf ",\"change_run_s_p25\":%.6f,\"change_run_s_median\":%.6f,\"change_run_s_p75\":%.6f", \
    quantile(cr, n, 0.25), quantile(cr, n, 0.5), quantile(cr, n, 0.75)
  printf ",\"parent_tenant_epochs_per_s_p25\":%.0f,\"parent_tenant_epochs_per_s_median\":%.0f,\"parent_tenant_epochs_per_s_p75\":%.0f", \
    quantile(pt, n, 0.25), quantile(pt, n, 0.5), quantile(pt, n, 0.75)
  printf ",\"change_tenant_epochs_per_s_p25\":%.0f,\"change_tenant_epochs_per_s_median\":%.0f,\"change_tenant_epochs_per_s_p75\":%.0f}\n", \
    quantile(ct, n, 0.25), quantile(ct, n, 0.5), quantile(ct, n, 0.75)
}' "$results"
