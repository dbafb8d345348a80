#!/usr/bin/env bash
# Dead-surface guard, run by CI and locally from anywhere in the repo.
#
# Lists every public fn, const, static and type declared in a library crate
# (crates/*/src, minus the vendored shims and src/bin) whose name no other
# .rs file names as a word: the crates' src, tests, benches and bins, the
# root src/, tests/ and examples/, and fleetbench/src/. Comment lines (doc
# comments included) and `pub use` re-exports do not count as a use. A
# type also counts as used when a public signature in its own file names
# it, for example as a parameter, return or field type.
#
# Output: the unused items, sorted, as `path:line name`. It fails when an
# unused item is missing from tools/dead_surface.allow, or when an
# allowlist entry (one `name reason` line each; `#` lines are comments)
# matches no unused item. Code that nothing needs goes; an item that must
# stay public goes on the allowlist with its reason.
set -euo pipefail

cd "$(dirname "$0")/.."

ALLOW=tools/dead_surface.allow

# Library sources whose public items are in scope (the shims live one level
# deeper, in crates/shims/*/src).
mapfile -t defs < <(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort)
# Every file that can use them.
mapfile -t users < <(find crates/*/src crates/*/tests crates/*/benches src tests examples \
  fleetbench/src -name '*.rs' | sort)

# Drops comment lines and `pub use` re-exports (which may span lines).
STRIP='
  FNR == 1 { reexport = 0; test = 0; sig = "" }
  reexport { if (index($0, ";")) reexport = 0; next }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*pub(\([a-z]+\))? use / { if (!index($0, ";")) reexport = 1; next }
'

# `token count` for every word, counting the files that name it.
tokens=$(awk "$STRIP"'
  {
    line = $0
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    n = split(line, words, " ")
    for (i = 1; i <= n; i++) {
      if (!((words[i], FILENAME) in seen)) { seen[words[i], FILENAME] = 1; files[words[i]]++ }
    }
  }
  END { for (w in files) print w, files[w] }
' "${users[@]}")

# `path line kind name` for every public item outside `#[cfg(test)]` items
# (a test module ends at its closing brace in column 0), and `path sig
# words...` for every public signature (a `pub` line up to its first `{` or
# `;`), which the type rule reads.
items=$(awk "$STRIP"'
  /^#\[cfg\(test\)\]/ { test = 1; next }
  test == 1 { test = /[{]/ ? 2 : 0; next }
  test == 2 { if (/^}/) test = 0; next }
  sig != "" {
    sig = sig " " $0
    if ($0 ~ /[{;]/) { print FILENAME, "sig", sig; sig = "" }
    next
  }
  /^[[:space:]]*pub / {
    kind = ""
    if (match($0, /^[[:space:]]*pub (const |async |unsafe |extern "C" )*fn [A-Za-z0-9_]+/)) kind = "fn"
    else if (match($0, /^[[:space:]]*pub (struct|enum|trait|type|union) [A-Za-z0-9_]+/)) kind = "type"
    else if (match($0, /^[[:space:]]*pub (const|static) (mut )?[A-Za-z0-9_]+/)) kind = "value"
    if (kind != "") {
      head = substr($0, RSTART, RLENGTH)
      n = split(head, w, " ")
      print FILENAME, FNR, kind, w[n]
    }
    if ($0 ~ /[{;]/) print FILENAME, "sig", $0
    else sig = $0
  }
' "${defs[@]}")

unused=$(awk '
  NR == FNR { files[$1] = $2; next }
  $2 == "sig" {
    for (i = 3; i <= NF; i++) { w = $i; gsub(/[^A-Za-z0-9_]+/, " ", w); sigs[$1] = sigs[$1] " " w }
    next
  }
  { item[++n] = $0 }
  END {
    for (k = 1; k <= n; k++) {
      split(item[k], f, " ")
      path = f[1]; line = f[2]; kind = f[3]; name = f[4]
      if (files[name] >= 2) continue
      if (kind == "type") {
        # Its own definition is one signature that names it.
        s = " " sigs[path] " "
        if (gsub(" " name " ", "&", s) >= 2) continue
      }
      print path ":" line, name
    }
  }
' <(echo "$tokens") <(echo "$items") | sort -t: -k1,1 -k2,2n)

echo "$unused" | grep . || true

entries=$(grep -vE '^[[:space:]]*(#|$)' "$ALLOW" || true)
allowed=$(echo "$entries" | awk 'NF { print $1 }' | sort)
names=$(echo "$unused" | awk 'NF { print $2 }' | sort -u)
status=0
missing=$(comm -23 <(echo "$names") <(echo "$allowed") | grep . || true)
if [ -n "$missing" ]; then
  echo "dead surface: public items no other file names (delete them, make them private, or allowlist them with a reason in $ALLOW):" >&2
  echo "$missing" >&2
  status=1
fi
stale=$(comm -13 <(echo "$names") <(echo "$allowed") | grep . || true)
if [ -n "$stale" ]; then
  echo "dead surface: allowlist entries that match no unused public item:" >&2
  echo "$stale" >&2
  status=1
fi
if echo "$entries" | awk 'NF == 1' | grep .; then
  echo "dead surface: allowlist entries without a reason" >&2
  status=1
fi
exit "$status"
