#!/usr/bin/env bash
# Calibrates the bug corpus: each tests/bugs/<name>.patch puts one
# historical bug back, and every guard its header names must fail with
# the bug in. A guard that passes has gone blind. A guard is an
# integration test, `Guard: tests/<file>.rs::<test>` (run as
# `cargo test --release --test <file> -- --exact <test>`), or a unit
# test, `Guard: crates/<crate>/src/<file>.rs::<module>::<test>` (run as
# `cargo test --release -p <package> --lib -- --exact <module>::<test>`,
# the package named in crates/<crate>/Cargo.toml).
#
#   scripts/calibrate_bugs.sh                     # every patch
#   scripts/calibrate_bugs.sh tests/bugs/x.patch  # just these
#
# For each patch: a scratch `git worktree` of HEAD, the patch applied,
# a release build, each named guard run on its own, then the whole
# tier-1 suite (`cargo test --release` at the root) to report which
# other tests the bug also trips. Each guard's line ends with its wall
# time (the test binary's run, build excluded): how long that bug
# takes to be detected. Exits 1 if a patch does not apply or build, or
# if any guard passes. One release build per patch (about a minute
# each); the worktrees share one target directory.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ "$#" -gt 0 ]; then patches=("$@"); else patches=(tests/bugs/*.patch); fi
unset TRIPS_GEOMETRY

scratch=$(mktemp -d)
tree="$scratch/tree"
export CARGO_TARGET_DIR="$scratch/target"
cleanup() {
  git worktree remove --force "$tree" 2>/dev/null || true
  rm -rf "$scratch"
}
trap cleanup EXIT

status=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  git worktree remove --force "$tree" 2>/dev/null || true
  git worktree add --detach --quiet "$tree" HEAD
  if ! git -C "$tree" apply "$root/$patch"; then
    echo "$name: does not apply to HEAD; port the bug to the current code"
    status=1
    continue
  fi
  if ! (cd "$tree" && cargo test --release --no-run -q) >"$scratch/build.log" 2>&1; then
    echo "$name: does not build with the bug in:"
    tail -20 "$scratch/build.log"
    status=1
    continue
  fi
  guards=$(sed -n '/^diff --git /q; s/^Guard: //p' "$patch")
  if [ -z "$guards" ]; then
    echo "$name: the header names no guard"
    status=1
  fi
  for guard in $guards; do
    file=${guard%%::*}
    test=${guard#*::}
    case $file in
      crates/*/src/*.rs)
        crate=${file#crates/}
        pkg=$(sed -n 's/^name = "\(.*\)"$/\1/p' "crates/${crate%%/*}/Cargo.toml" | head -n 1)
        target=(-p "$pkg" --lib) ;;
      *) target=(--test "$(basename "$file" .rs)") ;;
    esac
    log="$scratch/guard.log"
    (cd "$tree" && cargo test --release --no-run -q "${target[@]}") >"$log" 2>&1 || true
    start=$(date +%s.%N)
    if (cd "$tree" && cargo test --release -q "${target[@]}" -- --exact "$test") >"$log" 2>&1; then
      if grep -q 'running 0 tests' "$log"; then
        echo "$name: guard $guard does not exist"
      else
        echo "$name: guard $guard PASSES with the bug in (blind)"
      fi
      status=1
    else
      secs=$(echo "$start $(date +%s.%N)" | awk '{ printf "%.1f", $2 - $1 }')
      echo "$name: guard $guard fails, as it must (${secs} s)"
    fi
  done
  # Every tier-1 test the bug trips, under the header of the binary
  # that ran it: `tests/<file>.rs::<test>`, `src/lib.rs::<module>::<test>`
  # (unit tests), or `doc-tests <crate>::<file> - (line N)`.
  others=$(cd "$tree" && cargo test --release --no-fail-fast 2>&1 | awk '
    /^ *Running unittests / { file = $3 }
    /^ *Running tests\// { file = $2 }
    /^ *Doc-tests / { file = "doc-tests " $2 }
    /^test .* \.\.\. FAILED$/ {
      name = $0; sub(/^test /, "", name); sub(/ \.\.\. FAILED$/, "", name)
      print "  " file "::" name
    }' | sort || true)
  echo "$name: tier-1 tests failing with the bug in:"
  echo "${others:-  (none)}"
done
exit "$status"
