#!/usr/bin/env bash
# Lines of Rust per crate, split into code and tests the way a reader
# would: in `src/`, everything before a file's first inline test module
# (`#[cfg(test)]` on anything but an out-of-line `mod tests;`) is code and
# everything from it on is test; a file named `tests.rs` is test
# throughout; `tests/` and `examples/` are counted whole.
# Informational: CI prints it, and a PR quotes the rows it moved.
#
#   scripts/loc.sh [DIR]      # DIR defaults to the repository root
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

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

printf '%-24s %8s %8s %8s %8s\n' crate src-code src-test tests examples
total=(0 0 0 0)
for manifest in Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml benchmark/Cargo.toml; do
    [ -f "$manifest" ] || continue
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    read -r code test < <(split_src "$dir")
    row=("$code" "$test" "$(whole "$dir/tests")" "$(whole "$dir/examples")")
    printf '%-24s %8d %8d %8d %8d\n' "$dir" "${row[@]}"
    for i in "${!row[@]}"; do total[i]=$((total[i] + row[i])); done
done
printf '%-24s %8d %8d %8d %8d\n' total "${total[@]}"
