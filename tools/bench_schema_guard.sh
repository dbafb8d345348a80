#!/usr/bin/env bash
# Bench-ledger schema guard, run by CI after the benches and locally from
# anywhere in the repo. Every regenerated crates/bench/BENCH_*.json must
# carry the same set of (record, key list) pairs as its committed version
# (`git show HEAD:<file>`), so a column cannot appear, vanish, move or be
# renamed without a committed ledger update. A BENCH file that is not
# committed fails too.
set -euo pipefail

cd "$(dirname "$0")/.."

# One line per distinct (record, key list) pair of a JSON Lines stream.
shape() {
  jq -c '{record, keys: keys_unsorted}' | sort -u
}

status=0
for file in crates/bench/BENCH_*.json; do
  if ! committed=$(git show "HEAD:$file" 2>/dev/null); then
    echo "schema guard: $file is not committed" >&2
    status=1
    continue
  fi
  if ! diff <(printf '%s\n' "$committed" | shape) <(shape < "$file"); then
    echo "schema guard: $file changed its (record, key list) pairs" >&2
    status=1
  fi
done
exit "$status"
