#!/usr/bin/env bash
# Where one perf-ledger workload spends host time, by sampling.
#
#     scripts/sample_profile.sh <workload> [seconds]
#
# Builds the ledger (benchmark/) with debug info into its own target
# directory (target/sample-profile: same optimisation as the ledger's
# release build, symbols added), compiles the SIGPROF sampler
# scripts/sample_profile.c with the host gcc, runs one untraced timed run
# of <workload> at seed 7 for [seconds] (default 8) with the sampler
# preloaded, symbolizes every sample with `addr2line -a -i -f -C` and
# prints the share of samples per physical function (the function the
# machine code belongs to after inlining), then per function anywhere in
# the sample's inline chain (inclusive: a function inlined into its
# caller is still counted; standard-library frames are left out of this
# second table). A sample outside the executable is one row per shared
# object in both tables, named by its file ("[libc.so.6]": malloc and
# free show up there). Needs gcc and addr2line; x86-64 Linux. The
# kernel delivers roughly 330 samples per CPU-second on a shared host,
# so an 8-second run carries about 2 600.
set -euo pipefail
workload=${1:?usage: scripts/sample_profile.sh <workload> [seconds]}
seconds=${2:-8}
root=$(cd "$(dirname "$0")/.." && pwd)
target=$root/target/sample-profile
tmp=$(mktemp -d)
# Building the ledger may rewrite the frozen benchmark/Cargo.lock; put it back.
cp "$root/benchmark/Cargo.lock" "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" "$root/benchmark/Cargo.lock"; rm -rf "$tmp"' EXIT

CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$root/scripts/sample_profile.c"
bin=$target/release/trips-benchmark

SAMPLE_OUT=$tmp/pcs LD_PRELOAD=$tmp/sampler.so \
    "$bin" --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 >"$tmp/run.out"
tail -n 1 "$tmp/run.out" | grep -q '"correct": *true' ||
    echo "sample_profile: the run did not report correct=true" >&2

# One addr2line record per distinct PC in the executable, weighted by how
# often it was hit; samples elsewhere arrive already named by their
# mapping ("[libc.so.6]") and count as one row each.
sort "$tmp/pcs" | uniq -c >"$tmp/all"
grep -v ' \[' "$tmp/all" >"$tmp/counts" || true
grep ' \[' "$tmp/all" >"$tmp/mapped" || true
awk '{ print "0x" $2 }' "$tmp/counts" | addr2line -a -i -f -C -e "$bin" >"$tmp/symbols"

awk -v top=30 -v mapped="$tmp/mapped" '
    BEGIN {
        while ((getline line < mapped) > 0) {
            split(line, f, " ")
            physical[f[2]] += f[1]; inclusive[f[2]] += f[1]; total += f[1]
        }
    }
    # Pass 1: sample count of the n-th distinct PC.
    NR == FNR { weight[FNR] = $1; total += $1; next }
    # Pass 2: addr2line output — an address line, then (function,
    # location) pairs from the innermost inlined frame outwards.
    /^0x/ { flush(); rec++; depth = 0; odd = 1; next }
    { if (odd) chain[++depth] = strip($0); odd = !odd }
    END {
        flush()
        printf "%d samples\n\nphysical function\n", total
        report(physical)
        printf "\ninclusive over the inline chain\n"
        report(inclusive)
    }
    # A Rust legacy symbol ends in a ::h<16 hex> hash.
    function strip(name) { sub(/::h[0-9a-f]+$/, "", name); return name }
    function flush(   i, j, dup) {
        if (!rec) return
        physical[chain[depth]] += weight[rec]
        for (i = 1; i <= depth; i++) {
            # Standard-library helpers inline everywhere; they would
            # crowd the inclusive table without naming a layer.
            if (chain[i] ~ /^<?(core|alloc|std)::|^<[^ ]+ as (core|alloc|std)::/) continue
            dup = 0
            for (j = 1; j < i; j++) if (chain[j] == chain[i]) dup = 1
            if (!dup) inclusive[chain[i]] += weight[rec]
        }
    }
    function report(share,   name, n, i, j, k, t) {
        n = 0
        for (name in share) { n++; keys[n] = name }
        for (i = 1; i <= n && i <= top; i++) {  # selection of the top rows
            k = i
            for (j = i + 1; j <= n; j++) if (share[keys[j]] > share[keys[k]]) k = j
            t = keys[i]; keys[i] = keys[k]; keys[k] = t
            printf "%6.2f %%  %s\n", 100 * share[keys[i]] / total, keys[i]
        }
        for (i = 1; i <= n; i++) delete keys[i]
    }
' "$tmp/counts" "$tmp/symbols"
