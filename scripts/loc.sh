#!/usr/bin/env bash
# Lines of Rust per crate, split into code and tests the way a reader
# would: in `src/`, everything before a file's first inline test module
# (`#[cfg(test)]` on anything but an out-of-line `mod tests;`) is code and
# everything from it on is test; a file named `tests.rs` is test
# throughout; `tests/` and `examples/` are counted whole.
# Informational: CI prints it, and a PR quotes the rows it moved.
#
#   scripts/loc.sh [DIR]           # DIR defaults to the repository root
#   scripts/loc.sh --against REV   # the repository's table, and next to each
#                                  # column how far it moved since commit REV
set -euo pipefail

# Code and test lines of the `.rs` files under src/, as "code test".
split_src() {
    find "$1/src" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { in_test = (FILENAME ~ /(^|\/)tests\.rs$/); gated = 0 }
        gated { gated = 0; if ($0 !~ /^[[:space:]]*(pub )?mod [a-z_]+;/) { in_test = 1 } }
        /^[[:space:]]*#\[cfg\(test\)\]/ && !in_test { gated = 1; held++; next }
        { if (in_test) { test += 1 + held } else { code += 1 + held }; held = 0 }
        END { print code + 0, test + 0 }'
}

# Lines of the `.rs` files under a directory counted whole.
whole() {
    [ -d "$1" ] || { echo 0; return; }
    find "$1" -name '*.rs' -print0 | xargs -0 -r cat | wc -l
}

# One "crate src-code src-test tests examples" row per crate of the tree at
# $1, and a last row of totals.
rows() (
    cd "$1"
    total=(0 0 0 0)
    for manifest in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml benchmark/Cargo.toml; do
        [ -f "$manifest" ] || continue
        dir=$(dirname "$manifest")
        [ -d "$dir/src" ] || continue
        read -r code test < <(split_src "$dir")
        row=("$code" "$test" "$(whole "$dir/tests")" "$(whole "$dir/examples")")
        echo "$dir" "${row[@]}"
        for i in "${!row[@]}"; do total[i]=$((total[i] + row[i])); done
    done
    echo total "${total[@]}"
)

if [ "${1:-}" != --against ]; then
    printf '%-24s %8s %8s %8s %8s\n' crate src-code src-test tests examples
    rows "${1:-$(dirname "$0")/..}" | while read -r crate counts; do
        # shellcheck disable=SC2086
        printf '%-24s %8d %8d %8d %8d\n' "$crate" $counts
    done
    exit
fi

rev=${2:?usage: scripts/loc.sh --against REV}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
# The committed files of REV in a temporary directory. `git archive`, not
# `git worktree add`: nothing is registered with the repository, so a run
# that is interrupted leaves it as it found it.
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$old"
printf '%-24s %17s %17s %17s %17s\n' "crate (± since $(git -C "$root" rev-parse --short "$rev"))" \
    src-code src-test tests examples
awk '
    function line(crate, now, before,    n, o, i, out) {
        split(now, n); split(before, o)
        for (i = 1; i <= 4; i++) out = out sprintf(" %8d %+8d", n[i], n[i] - o[i])
        printf "%-24s%s\n", crate, out
    }
    { counts = $2 " " $3 " " $4 " " $5 }
    NR == FNR { before[$1] = counts; next }
    $1 != "total" { line($1, counts, before[$1]); delete before[$1]; next }
    {
        for (crate in before) if (crate != "total") line(crate " (gone)", "", before[crate])
        line("total", counts, before["total"])
    }
' <(rows "$old") <(rows "$root")
