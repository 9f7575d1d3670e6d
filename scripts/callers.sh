#!/usr/bin/env bash
# Caller census: every `pub fn` under `crates/*/src` (the shims excepted)
# whose name appears as a whole word exactly once in its own file and in no
# other `.rs` file of `crates/`, `src/`, `tests/`, `examples/` or
# `benchmark/src/` — a public function nothing calls, tests included.
# Informational: CI prints it beside scripts/loc.sh. A name it prints is
# deleted, or kept with the reason in the PR that keeps it.
#
#   scripts/callers.sh [DIR]    # DIR defaults to the repository root
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

dirs=()
for dir in crates src tests examples benchmark/src; do
    [ -d "$dir" ] && dirs+=("$dir")
done

# "count file:word" for every identifier of every file, then the
# definitions as "file:line:pub fn name".
awk '
    NR == FNR {
        split($2, at, ":")
        files[at[2]]++; home[at[2]] = at[1]; count[at[2]] = $1
        next
    }
    {
        split($0, def, ":"); name = def[3]; sub(/^pub fn /, "", name)
        if (files[name] == 1 && home[name] == def[1] && count[name] == 1)
            print def[1] ":" def[2] " " name
    }
' <(grep -rowE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' "${dirs[@]}" | sort | uniq -c) \
  <(find crates -path crates/shims -prune -o -path 'crates/*/src/*.rs' -print0 |
      xargs -0 -r grep -noE 'pub fn [A-Za-z_][A-Za-z0-9_]*' | sort)
