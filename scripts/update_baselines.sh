#!/usr/bin/env bash
# Regenerate every checked-in BENCH_*.json. Each holds simulated
# quantities only — no host time, no thread count — so it is a pure
# function of the model and the whole gate (CI's purity-gate job) is
#
#     scripts/update_baselines.sh && git diff --exit-code -- 'BENCH_*.json'
#
# A change that moves a cycle count or a counter says so by committing
# the regenerated file. Host throughput is not in these files: it is
# measured in one place, the perf ledger (benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# chipsim builds its cores from the die TRIPS_GEOMETRY names (the
# coherence-smoke lane relies on that): a shell left over from the mini
# lane would write mini-die numbers into the prototype baselines.
if [ -n "${TRIPS_GEOMETRY+set}" ]; then
    echo "update_baselines: TRIPS_GEOMETRY=$TRIPS_GEOMETRY is set; the baselines are" \
        "the prototype die's — unset it" >&2
    exit 2
fi

cargo build --release -p trips-bench
./target/release/chipsim --smoke
# The full dual+quad table, not --smoke: rows are a few thousand cycles
# each and the quad dies carry most of the invalidation traffic.
./target/release/chipsim --shared
./target/release/paretosweep --smoke
./target/release/memsweep
# The full Table 3: it writes BENCH_table3.json (E3's raw
# critical-path cycles and the recorder's stored-event counts).
./target/release/table3

# BENCH_ledger.json — per ledger workload at seed 7: sim_cycles and the
# oracle verdict of a timed run, and every exact counter (unit "count")
# of a traced one except the host's own thread count. The ledger
# refuses to run under TRIPS_THREADS, so it is dropped for these calls.
ledger() { # <workload> <trace>: the run's result line
    env -u TRIPS_THREADS cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed 7 --seconds 2 --trace "$2" | tail -n 1
}
tmp=$(mktemp -d)
# Building the ledger may rewrite the frozen benchmark/Cargo.lock; put it back.
cp benchmark/Cargo.lock "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT
for wl in $(jq -r '.workloads[].name' BENCHMARK.json); do
    ledger "$wl" 0 >"$tmp/timed"
    ledger "$wl" 1 >"$tmp/traced"
    jq -n --arg name "$wl" --slurpfile timed "$tmp/timed" --slurpfile traced "$tmp/traced" '{
        name: $name,
        sim_cycles: $timed[0].metrics.sim_cycles.value,
        correct: $timed[0].correct,
        failed: $timed[0].failed,
        counts: ($traced[0].metrics | with_entries(
            select(.value.unit == "count" and .key != "harness.threads") | .value |= .value))
    }' >>"$tmp/rows"
done
jq -s '{seed: 7, workloads: .}' "$tmp/rows" >BENCH_ledger.json
echo "wrote BENCH_ledger.json"

echo
git --no-pager diff --stat -- 'BENCH_*.json'
if git diff --quiet -- 'BENCH_*.json'; then
    echo "no baseline moved"
else
    echo "baselines moved: review the diff, then commit the files with the change that moved them"
fi
