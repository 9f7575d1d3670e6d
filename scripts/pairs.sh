#!/usr/bin/env bash
# Alternating pairs of the benchmark's contract command on two checkouts of
# the repository, the evidence a performance claim needs (ROADMAP aim 1:
# at least ten pairs, each seed run on both sides, alternating which side
# runs first).
#
#   scripts/pairs.sh [--trace] DIR_PARENT DIR_CHANGE WORKLOAD [PAIRS] [FIRST_SEED]
#
# PAIRS defaults to 10 and FIRST_SEED to 2005; pair i runs seed
# FIRST_SEED + i on both sides, the parent first in even pairs. Each
# checkout is built once, in a target directory of its own under
# $PAIRS_TARGET_ROOT (default ${TMPDIR:-/tmp}/pairs-target, one directory
# per checkout path), so the two never share artifacts. Every run is
#
#   cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
#       --workload WORKLOAD --seed SEED --seconds 10 --trace 0
#
# from inside the checkout, and its stdout is kept under a fresh directory
# whose name the script prints. The summary gives, per end-to-end metric,
# each side's median and quartiles, how many pairs the change won (ties
# count for neither), whether the medians differ by more than the parent's
# inter-quartile spread, the metric's bound and whether the change's median
# is worse than the parent's by more than it ("OVER"; the no-regression
# half of a claim), and, for a metric measured in simulated time, whether
# both sides read the same value on every seed. A run that exits 1 (an
# incorrect result) is kept and reported; any other failure stops the script.
#
# With --trace every run is the traced pass (--trace 1) instead, and the
# summary is one row per seed and side: `correct`, `trace.unexplained_share`,
# `trace.digest_equal` and the hand-timed `keep_alive`, `maintenance tick`
# and `lookup` handler legs in ns (from the run's `attribution of ...`
# block; "-" where a workload times none), then each column's median per
# side (for `correct`, how many runs were). A run whose unexplained share
# exceeds the benchmark's bound reads `correct` false.
set -euo pipefail

trace=0
if [ "${1:-}" = --trace ]; then
    trace=1
    shift
fi
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
first_seed=${5:-2005}
target_root=${PAIRS_TARGET_ROOT:-${TMPDIR:-/tmp}/pairs-target}
out=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")

# The target directory of the checkout at $1: one per absolute path.
target_of() {
    printf '%s/%s' "$target_root" "$(printf '%s' "$1" | cksum | cut -d' ' -f1)"
}

bench() { # DIR build|run [-- ARGS...]
    local dir=$1 command=$2
    shift 2
    (cd "$dir" && CARGO_TARGET_DIR=$(target_of "$dir") \
        cargo "$command" --release --quiet --manifest-path benchmark/Cargo.toml "$@")
}

for dir in "$parent" "$change"; do
    echo "building $dir" >&2
    bench "$dir" build
done

run() { # SIDE SEED PAIR
    local dir=$parent
    [ "$1" = change ] && dir=$change
    echo "pair $3/$pairs: $1, seed $2" >&2
    bench "$dir" run -- --workload "$workload" --seed "$2" --seconds 10 --trace "$trace" \
        >"$out/$1.$2.txt" || [ $? -eq 1 ]
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$seed" $((i + 1))
        run change "$seed" $((i + 1))
    else
        run change "$seed" $((i + 1))
        run parent "$seed" $((i + 1))
    fi
done

echo "runs kept in $out" >&2
if ((trace)); then
    python3 - "$out" "$pairs" "$first_seed" <<'EOF'
import json, re, statistics, sys

out, pairs, first = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
# "  keep_alive: 1234 received x 684 ns (timed on 100 calls)"
leg = re.compile(r"^  ([^:]+): \S+ (?:received )?x (\S+) ns \(timed on")
legs = ("keep_alive", "maintenance tick", "lookup")
heads = ("correct", "unexplained", "digest_equal") + tuple(f"{name} ns" for name in legs)

def row(side, seed):
    text = open(f"{out}/{side}.{seed}.txt").read().splitlines()
    result = json.loads(text[-1])
    timed = {m.group(1): float(m.group(2)) for m in map(leg.match, text) if m}
    metric = lambda name: result["metrics"].get(name, {}).get("value")
    return [float(result["correct"]), metric("trace.unexplained_share"),
            metric("trace.digest_equal")] + [timed.get(name) for name in legs]

def show(value, column):
    if value is None:
        return "-"
    if column == 0:
        return "true" if value else "false"
    return f"{value:.3f}" if column < 3 else f"{value:.0f}"

print(f"{'seed':>6} {'side':6} " + " ".join(f"{h:>18}" for h in heads))
rows = {"parent": [], "change": []}
for seed in range(first, first + pairs):
    for side in rows:
        rows[side].append(row(side, seed))
        print(f"{seed:>6} {side:6} "
              + " ".join(f"{show(v, c):>18}" for c, v in enumerate(rows[side][-1])))
for side, table in rows.items():
    medians = [f"{sum(r[0] for r in table):.0f}/{len(table)}"]
    for c in range(1, len(heads)):
        values = [r[c] for r in table if r[c] is not None]
        medians.append(f"{statistics.median(values):.4g}" if values else "-")
    print(f"{'median':>6} {side:6} " + " ".join(f"{m:>18}" for m in medians))
EOF
    exit 0
fi
python3 - "$out" "$workload" "$pairs" "$first_seed" <<'EOF'
import json, re, statistics, sys

out, workload, pairs, first = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
seeds = range(first, first + pairs)
# "name  value unit  better lower|higher  bound N %  [how it is measured]"
line = re.compile(r"^(\S+)\s+\S+\s+\S+\s+better (lower|higher)\s+bound\s+(\S+) %\s+\[(.*)\]$")

def load(side, seed):
    text = open(f"{out}/{side}.{seed}.txt").read().splitlines()
    result = json.loads(text[-1])
    meta = {m.group(1): (m.group(2), float(m.group(3)), m.group(4)) for m in map(line.match, text) if m}
    return result, meta

runs = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}
meta = runs["parent"][0][1]

def simulated(how):
    # "simulated", or "simulated (udp_kv: wall)" on every workload but udp_kv.
    return how == "simulated" or (how.startswith("simulated (") and f"{workload}:" not in how)

def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")

def cell(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

for side in ("parent", "change"):
    wrong = [s for s, (r, _) in zip(seeds, runs[side]) if not r["correct"]]
    print(f"{side}: {pairs} runs, incorrect on seeds {wrong or 'none'}")
def worse_by(parent, change, sign):
    # How much worse the change's median is, as a fraction of the parent's.
    if change == parent:
        return 0.0
    if parent == 0:
        return float("inf") if sign * (change - parent) < 0 else float("-inf")
    return sign * (parent - change) / abs(parent)

print(f"{'metric':22} {'better':6} {'parent median [q1, q3]':34} {'change median [q1, q3]':34}"
      f" {'wins':>5} {'> IQR':5} {'bound':10} same per seed")
for name, (better, bound, how) in meta.items():
    p, c = ([r["metrics"][name]["value"] for r, _ in runs[side]] for side in ("parent", "change"))
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    (pq1, pm, pq3), (_, cm, _) = quartiles(p), quartiles(c)
    beyond = "yes" if abs(cm - pm) > pq3 - pq1 else "no"
    over = "OVER" if worse_by(pm, cm, sign) > bound / 100 else "ok"
    same = ("yes" if p == c else "NO") if simulated(how) else "-"
    print(f"{name:22} {better:6} {cell(p):34} {cell(c):34} {f'{wins}/{pairs}':>5} {beyond:5}"
          f" {f'{bound:g} % {over}':10} {same}")
EOF
