#!/usr/bin/env bash
# Caller censuses over the `fn`s of `crates/*/src` (the shims excepted).
# Informational: CI prints both beside scripts/loc.sh. A name either prints
# is deleted, or kept with the reason stated in the change that keeps it.
#
# The default census lists every `pub fn` whose name appears as a whole word
# exactly once in its own file and in no other `.rs` file of `crates/`,
# `src/`, `tests/`, `examples/` or `benchmark/src/` — a public function
# nothing calls, tests included.
#
# `--test-only` lists every `pub` / `pub(crate) fn` whose name, outside its
# definition and `pub use` lines, appears only in the test code of its own
# file, or in the body of a function this census lists already (so a
# helper only such a function calls is listed with it). Test code is
# everything from a file's first `#[cfg(test)]` that does not gate an
# out-of-line `mod tests;`, and all of a file named `tests.rs` — the split
# of scripts/loc.sh.
#
#   scripts/callers.sh [--test-only] [DIR]    # DIR defaults to the repository root
set -euo pipefail
mode=callers
if [ "${1:-}" = --test-only ]; then
    mode=test-only
    shift
fi
cd "${1:-$(dirname "$0")/..}"

dirs=()
for dir in crates src tests examples benchmark/src; do
    [ -d "$dir" ] && dirs+=("$dir")
done

if [ "$mode" = callers ]; then
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
    exit
fi

mapfile -d '' files < <(find "${dirs[@]}" -name '*.rs' -print0 | sort -z)
awk '
    FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\.rs$/); gated = 0; open = 0 }
    gated { gated = 0; if ($0 !~ /^[[:space:]]*(pub )?mod [a-z_]+;/) in_test = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ && !in_test { gated = 1 }
    # The body of the open definition ends at the first "}" of its indent.
    open && $0 == indent[open] "}" { last[open] = FNR; open = 0 }
    /^[[:space:]]*pub(\(crate\))? fn [a-z_]/ && !in_test && FILENAME ~ /^crates\/[^\/]+\/src\// {
        ndef++; file[ndef] = FILENAME; first[ndef] = last[ndef] = FNR
        name[ndef] = $0; sub(/^[[:space:]]*pub(\(crate\))? fn /, "", name[ndef])
        sub(/[^a-z0-9_].*/, "", name[ndef])
        indent[ndef] = $0; sub(/[^[:space:]].*/, "", indent[ndef])
        if ($0 !~ /[};]$/) open = ndef
    }
    /^[[:space:]]*pub use / { next }
    {
        line = $0; defined = ""
        if (match(line, /fn [a-z_][a-z0-9_]*/)) defined = substr(line, RSTART + 3, RLENGTH - 3)
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
            if (word == defined || word !~ /^[a-z_][a-z0-9_]*$/) continue
            seen[word]++
            at[word, seen[word]] = FILENAME SUBSEP FNR SUBSEP in_test
        }
    }
    # A use is excused when it lies in the test code of the file that
    # defines the name, or in the body of a listed definition.
    function excused(d, use,    u, e) {
        split(use, u, SUBSEP)
        if (u[1] == file[d] && u[3]) return 1
        for (e = 1; e <= ndef; e++)
            if (listed[e] && u[1] == file[e] && u[2] > first[e] && u[2] <= last[e]) return 1
        return 0
    }
    END {
        do {
            grew = 0
            for (d = 1; d <= ndef; d++) {
                if (listed[d] || !seen[name[d]]) continue
                ok = 1
                for (i = 1; ok && i <= seen[name[d]]; i++) ok = excused(d, at[name[d], i])
                if (ok) { listed[d] = 1; grew = 1 }
            }
        } while (grew)
        for (d = 1; d <= ndef; d++)
            if (listed[d]) print file[d] ":" first[d] " " name[d]
    }
' "${files[@]}"
