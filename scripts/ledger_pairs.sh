#!/usr/bin/env bash
# Compare the perf ledger of a parent revision with the working tree,
# in alternating pairs:
#
#     scripts/ledger_pairs.sh <parent-rev> <pairs> <workload>...
#
# Builds <parent-rev> in a scratch `git worktree` and the working tree,
# each into its own target dir under target/ledger-pairs/, then runs the
# two ledger binaries back to back for every workload of every pair
# (the parent first on odd pairs, the change first on even ones) at
# seed 7 and BENCHMARK.json's run_seconds. Host speed drifts over
# minutes; alternating puts both sides under the same drift.
#
# For each workload and end-to-end metric it prints the parent's median
# [q1, q3], the change's median [q1, q3], their ratio (change / parent)
# and in how many pairs the change was better. Every number comes from
# the ledger's own result lines; the script reads no clock. It exits 1
# if any run reports `correct: false` or `failed > 0`, 2 on bad usage.
# Needs jq. The result lines stay in target/ledger-pairs/runs.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || ! [[ $2 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/ledger_pairs.sh <parent-rev> <pairs> <workload>..." >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
pairs=$2
shift 2
seconds=$(jq -r .run_seconds BENCHMARK.json)
for wl in "$@"; do
    if ! jq -e --arg wl "$wl" 'any(.workloads[]; .name == $wl)' BENCHMARK.json >/dev/null; then
        echo "ledger_pairs: no workload '$wl' in BENCHMARK.json" >&2
        exit 2
    fi
done

work=$PWD/target/ledger-pairs
tree=$work/parent-tree
mkdir -p "$work"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach --quiet "$tree" "$rev"
trap 'git worktree remove --force "$tree"' EXIT

# Building may rewrite the frozen benchmark/Cargo.lock; put it back.
build() { # <checkout> <target dir>
    local lock
    lock=$(mktemp)
    cp "$1/benchmark/Cargo.lock" "$lock"
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
    cp "$lock" "$1/benchmark/Cargo.lock"
    rm -f "$lock"
}
build "$tree" "$work/target-parent"
build "$PWD" "$work/target-change"

runs=$work/runs.jsonl
: >"$runs"
for pair in $(seq 1 "$pairs"); do
    sides="parent change"
    [ $((pair % 2)) -eq 1 ] || sides="change parent"
    for wl in "$@"; do
        for side in $sides; do
            env -u TRIPS_THREADS -u TRIPS_GEOMETRY "$work/target-$side/release/trips-benchmark" \
                --workload "$wl" --seed 7 --seconds "$seconds" --trace 0 | tail -n 1 |
                jq -c --arg side "$side" --arg wl "$wl" --argjson pair "$pair" \
                    '{side: $side, workload: $wl, pair: $pair, result: .}' >>"$runs"
            echo "pair $pair/$pairs $wl $side done" >&2
        done
    done
done

echo "parent $rev vs the working tree: $pairs pairs, seed 7, ${seconds}s runs"
jq -rs --slurpfile bench BENCHMARK.json '
    # Quantile by linear interpolation between order statistics.
    def q($p): sort as $s | ((($s | length) - 1) * $p) as $h | ($h | floor) as $i
        | $s[$i] + ($h - $i) * ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]);
    . as $runs
    | ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
       "ratio", "won"],
      ($runs | map(.workload) | unique[] as $wl
       | $bench[0].end_to_end[] as $m
       | [$runs[] | select(.workload == $wl)] as $r
       | ([$r[] | select(.side == "parent")] | sort_by(.pair)
          | map(.result.metrics[$m.name].value)) as $p
       | ([$r[] | select(.side == "change")] | sort_by(.pair)
          | map(.result.metrics[$m.name].value)) as $c
       | [$wl, $m.name,
          "\($p | q(0.5)) [\($p | q(0.25)), \($p | q(0.75))]",
          "\($c | q(0.5)) [\($c | q(0.25)), \($c | q(0.75))]",
          (if ($p | q(0.5)) == 0 then "-" else ($c | q(0.5)) / ($p | q(0.5)) end),
          "\([range($p | length)] | map(select(if $m.better == "higher"
                then $c[.] > $p[.] else $c[.] < $p[.] end)) | length)/\($p | length)"])
    | @tsv' "$runs" |
    awk -F'\t' '
        function g(x) { return x ~ /^-?[0-9.e+-]+$/ ? sprintf("%.5g", x) : x }
        function span(s,   a, n) {
            n = split(s, a, /[][ ,]+/)
            return n < 3 ? s : sprintf("%s [%s, %s]", g(a[1]), g(a[2]), g(a[3]))
        }
        NR == 1 { printf "%-15s %-22s %-32s %-32s %-7s %s\n", $1, $2, $3, $4, $5, $6; next }
        { printf "%-15s %-22s %-32s %-32s %-7s %s\n", $1, $2, span($3), span($4),
              ($5 == "-" ? "-" : sprintf("%.3f", $5)), $6 }'

bad=$(jq -r 'select(.result.correct != true or .result.failed > 0)
    | "\(.side) \(.workload) pair \(.pair): correct=\(.result.correct) failed=\(.result.failed)"' "$runs")
if [ -n "$bad" ]; then
    echo "ledger_pairs: runs that were not correct:" >&2
    echo "$bad" >&2
    exit 1
fi
