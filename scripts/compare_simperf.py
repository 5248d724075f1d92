#!/usr/bin/env python3
"""CI perf-regression gate over simperf output.

Compares a fresh ``simperf --smoke`` run against the checked-in
baseline (``BENCH_simperf.json``) and fails when:

* any workload's simulated cycle count differs from the baseline and
  the PR did not update the baseline file itself (``sim_cycles`` is a
  pure function of the model, so an unacknowledged change means the
  default perfect-L2 configuration silently changed behaviour); or
* the workload name sets differ without a baseline update (a workload
  added or removed in only one file would otherwise dodge the
  per-workload check); or
* the suite's aggregate host throughput (total simulated cycles per
  total host-second) regressed by more than the tolerance
  (default 15%), baseline update or not; or
* ``--min-throughput`` is given and the current aggregate throughput
  is below that absolute floor. The floor is the ratchet: tolerance
  is relative to whatever baseline is checked in, so a slow baseline
  would silently lower the bar — the floor cannot be moved by a
  baseline update, only by editing the CI workflow.

Usage:
    compare_simperf.py BASELINE CURRENT [--baseline-updated]
                       [--tolerance 0.15] [--label NAME]
                       [--min-throughput CYC_PER_SEC]

The same gate also covers ``BENCH_chipsim.json`` (the dual-core chip
contention benchmark shares the ``workloads[].{name, sim_cycles}`` row
shape); ``--label`` names the suite in the output so interleaved gate
runs stay readable. Host time per row is read from ``wall_secs``
(chipsim: whole-pairing wall seconds; simperf: the run's host seconds)
with ``gated_secs`` accepted as a fallback so baselines
recorded before simperf's rename still compare; either denominates
that file's throughput.

``--baseline-updated`` tells the gate that the change under test also
updates the baseline file; simulated-cycle differences and name-set
changes are then accepted (they are exactly what the update records),
while the throughput checks still apply.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {w["name"]: w for w in doc["workloads"]}
    if not rows:
        sys.exit(f"{path}: no workloads recorded")
    return rows


def host_secs(row):
    """Host seconds for one row: ``wall_secs``, falling back to
    ``gated_secs`` (pre-rename simperf baselines)."""
    secs = row.get("wall_secs", row.get("gated_secs"))
    if secs is None:
        sys.exit(f"workload {row.get('name')!r}: no wall_secs/gated_secs field")
    return secs


def aggregate_throughput(rows):
    cycles = sum(w["sim_cycles"] for w in rows.values())
    secs = sum(host_secs(w) for w in rows.values())
    if secs <= 0:
        sys.exit("non-positive total host time in simperf output")
    return cycles / secs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--baseline-updated", action="store_true")
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--label", default="simperf")
    ap.add_argument(
        "--min-throughput",
        type=float,
        default=None,
        metavar="CYC_PER_SEC",
        help="absolute floor on current aggregate sim-cycles/host-sec, "
        "enforced regardless of baseline updates",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    errors = []

    missing = sorted(set(base) - set(cur))
    added = sorted(set(cur) - set(base))
    if (missing or added) and not args.baseline_updated:
        errors.append(
            f"workload set changed without a baseline update "
            f"(missing: {missing or 'none'}, added: {added or 'none'})"
        )

    for name in sorted(set(base) & set(cur)):
        b, c = base[name]["sim_cycles"], cur[name]["sim_cycles"]
        if b != c:
            msg = f"{name}: sim_cycles {b} -> {c}"
            if args.baseline_updated:
                print(f"note: {msg} (accepted: baseline updated in this change)")
            else:
                errors.append(
                    f"{msg} — simulated behaviour changed; if intentional, "
                    f"regenerate and commit the baseline in the same change"
                )

    base_tp = aggregate_throughput(base)
    cur_tp = aggregate_throughput(cur)
    ratio = cur_tp / base_tp
    print(
        f"[{args.label}] host throughput: baseline {base_tp:,.0f} cyc/s, "
        f"current {cur_tp:,.0f} cyc/s ({ratio:.2%} of baseline)"
    )
    if ratio < 1.0 - args.tolerance:
        errors.append(
            f"host throughput regressed to {ratio:.2%} of baseline "
            f"(gate: {1.0 - args.tolerance:.0%})"
        )
    if args.min_throughput is not None and cur_tp < args.min_throughput:
        errors.append(
            f"host throughput {cur_tp:,.0f} cyc/s is below the absolute floor "
            f"{args.min_throughput:,.0f} cyc/s (the ratchet: fix the regression "
            f"or raise the floor deliberately in the workflow)"
        )

    if errors:
        print(f"\n[{args.label}] perf gate FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        sys.exit(1)
    print(f"[{args.label}] perf gate passed")


if __name__ == "__main__":
    main()
