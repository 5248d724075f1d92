#!/usr/bin/env bash
# Where one perf-ledger workload spends host time, by sampling.
#
#     scripts/sample_profile.sh <workload> [seconds]
#
# Builds the ledger (benchmark/) with debug info and frame pointers into
# its own target directory (target/sample-profile: same optimisation as
# the ledger's release build, symbols and `-C force-frame-pointers=yes`
# added), compiles the SIGPROF sampler scripts/sample_profile.c with the
# host gcc, runs one untraced timed run of <workload> at seed 7 for
# [seconds] (default 8) with the sampler preloaded, symbolizes every
# sampled PC and return address with `addr2line -a -i -f -C` and prints
# the share of samples per physical function (the function the PC's
# machine code belongs to after inlining), then per function anywhere on
# the sample's stack (inclusive: every function in the inline chains of
# the PC and of each caller's call site, each counted once per sample, so
# a function's share includes its out-of-line callees; standard-library
# frames are left out of this second table). The inclusive table also
# has one row per `Mesh` instance: a sample in mesh code is credited to
# "Mesh as OPN" when the nearest caller outside trips_micronet is in
# trips_core (`Nets`, the invariant checker) and to "Mesh as OCN" when it
# is in trips_mem (`SecondarySystem`). A sample outside the executable is
# one row per shared object in both tables, named by its file
# ("[libc.so.6]": malloc and free show up there). Needs gcc and
# addr2line; x86-64 Linux. The kernel delivers roughly 330 samples per
# CPU-second on a shared host, so an 8-second run carries about 2 600.
set -euo pipefail
workload=${1:?usage: scripts/sample_profile.sh <workload> [seconds]}
seconds=${2:-8}
root=$(cd "$(dirname "$0")/.." && pwd)
target=$root/target/sample-profile
tmp=$(mktemp -d)
# Building the ledger may rewrite the frozen benchmark/Cargo.lock; put it back.
cp "$root/benchmark/Cargo.lock" "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" "$root/benchmark/Cargo.lock"; rm -rf "$tmp"' EXIT

RUSTFLAGS="${RUSTFLAGS:-} -C force-frame-pointers=yes" \
    CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$root/scripts/sample_profile.c"
bin=$target/release/trips-benchmark

SAMPLE_OUT=$tmp/stacks LD_PRELOAD=$tmp/sampler.so \
    "$bin" --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 >"$tmp/run.out"
tail -n 1 "$tmp/run.out" | grep -q '"correct": *true' ||
    echo "sample_profile: the run did not report correct=true" >&2

# One addr2line record per distinct address in the executable; addresses
# elsewhere arrive already named by their mapping ("[libc.so.6]").
tr ' ' '\n' <"$tmp/stacks" | grep -v '^\[' | sort -u | sed 's/^/0x/' |
    addr2line -a -i -f -C -e "$bin" >"$tmp/symbols"

awk -v top=30 '
    # Pass 1: addr2line output — an address line, then (function,
    # location) pairs from the innermost inlined frame outwards.
    NR == FNR {
        if (/^0x/) { addr = substr($0, 3); sub(/^0+/, "", addr); odd = 1; next }
        if (odd) chain[addr] = chain[addr] == "" ? strip($0) : chain[addr] SUBSEP strip($0)
        odd = !odd
        next
    }
    # Pass 2: one sample a line, the PC first, then each caller.
    {
        total++
        n = 0
        for (f = 1; f <= NF; f++) {
            # A caller outside the executable is the C start-up code.
            if ($f ~ /^\[/) { if (f == 1) { frame[++n] = $f; physical[$f]++ }; continue }
            a = $f; sub(/^0+/, "", a)
            depth = split(chain[a], inl, SUBSEP)
            if (f == 1) physical[inl[depth]]++
            for (i = 1; i <= depth; i++) frame[++n] = inl[i]
        }
        delete seen
        mesh = 0
        for (i = 1; i <= n; i++) {
            # Standard-library helpers inline everywhere; they would
            # crowd the inclusive table without naming a layer.
            if (frame[i] ~ /^<?(core|alloc|std)::|^<[^ ]+ as (core|alloc|std)::/) continue
            if (!(frame[i] in seen)) { seen[frame[i]] = 1; inclusive[frame[i]]++ }
            if (frame[i] ~ /trips_micronet::mesh::/) mesh = 1
            else if (mesh == 1 && frame[i] !~ /^<?trips_micronet::/) {
                mesh = 2
                instance = frame[i] ~ /^<?trips_core::/ ? "Mesh as OPN (caller in trips_core)" \
                    : frame[i] ~ /^<?trips_mem::/ ? "Mesh as OCN (caller in trips_mem)" \
                    : "Mesh (other caller)"
                inclusive[instance]++
            }
        }
        if (mesh == 1) inclusive["Mesh (caller not on the stack)"]++
    }
    END {
        printf "%d samples\n\nphysical function\n", total
        report(physical)
        printf "\ninclusive over the stack\n"
        report(inclusive)
    }
    # A Rust legacy symbol ends in a ::h<16 hex> hash.
    function strip(name) { sub(/::h[0-9a-f]+$/, "", name); return name }
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
' "$tmp/symbols" "$tmp/stacks"
