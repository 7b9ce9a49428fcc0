#!/usr/bin/env python3
"""Compare a fresh sched_speedup trajectory against the committed one.

Fails (exit 1) when any benchmark configuration regresses by more than
the tolerance in `steps`, `transfers`, `makespan_cycles` (the
cycle-level figure of merit of the decoupled execution model) or
`rrams` (the RRAM cells the scheduled program needs), or when
`refine_steps_saved` — the steps the refinement passes bought, the
higher-is-better yield the incremental evaluator's 10x pass budget
pays for — shrinks by more than the tolerance (skipped when the
committed run saved nothing, so zero-yield configs cannot trap noise).
The top-level headline `average_decoupled_speedup_4_banks` is gated
the same way: shrinking it by more than the tolerance fails the diff
(missing on either side is noted and skipped).
Configurations are matched by (benchmark, mode, banks, bus_width);
entries present on only one side are reported but do not fail the diff
(benchmarks and sweep shapes may legitimately grow), a metric missing
on either side is noted and skipped (the JSON schema may grow), and
timing fields like schedule_ms are ignored.

Every per-configuration block is one plim::StatsReport — the schema
shared with `plimc --json` / `plimc --batch`: schedule metrics live in
the nested "schedule" object (pre-facade trajectories carried them at
the top level; both shapes are accepted so the diff can bridge the
schema migration).

Usage: diff_bench.py committed.json fresh.json [--tolerance 0.05]
"""

import argparse
import json
import sys


def sched(block):
    """Schedule metrics of one config block (StatsReport or legacy flat)."""
    if isinstance(block.get("schedule"), dict):
        return block["schedule"]
    return block


def entries(trajectory):
    """Yield ((benchmark, mode, banks, bus_width), schedule-metrics)."""
    for bench in trajectory.get("benchmarks", []):
        name = bench.get("benchmark", "?")
        for mode, payload in bench.items():
            if mode == "benchmark":
                continue
            if isinstance(payload, dict) and isinstance(
                    payload.get("banks"), list):
                for entry in (sched(e) for e in payload["banks"]):
                    yield (name, mode, entry["banks"], entry.get("bus_width", 0)), entry
                for entry in (sched(e) for e in payload.get("bus_4banks", [])):
                    yield (name, mode, 4, entry.get("bus_width", 0)), entry
            elif isinstance(payload, dict):
                entry = sched(payload)
                if "steps" in entry:
                    # flat single-config blocks (e.g. unclustered_4banks)
                    yield (name, mode, entry.get("banks", 0),
                           entry.get("bus_width", 0)), entry


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative regression (default 5%%)")
    args = parser.parse_args()

    with open(args.committed) as f:
        committed_top = json.load(f)
    with open(args.fresh) as f:
        fresh_top = json.load(f)
    committed = dict(entries(committed_top))
    fresh = dict(entries(fresh_top))

    regressions = []
    compared = 0
    missing_metrics = set()
    for key, old in sorted(committed.items()):
        new = fresh.get(key)
        if new is None:
            print(f"note: {key} only in committed trajectory")
            continue
        compared += 1
        for metric in ("steps", "transfers", "makespan_cycles", "rrams"):
            if metric not in old or metric not in new:
                missing_metrics.add(metric)
                continue
            before, after = old[metric], new[metric]
            if after > before * (1.0 + args.tolerance):
                regressions.append((key, metric, before, after))
        # Higher-is-better: refinement yield must not collapse.
        metric = "refine_steps_saved"
        if metric not in old or metric not in new:
            missing_metrics.add(metric)
        elif old[metric] > 0 and new[metric] < old[metric] * (
                1.0 - args.tolerance):
            regressions.append((key, metric, old[metric], new[metric]))
    for metric in sorted(missing_metrics):
        print(f"note: metric {metric} missing on one side, skipped")
    for key in sorted(set(fresh) - set(committed)):
        print(f"note: {key} only in fresh trajectory")

    # Top-level headline: the average 4-bank decoupled cycle speedup
    # (higher is better) must not shrink beyond the tolerance.
    metric = "average_decoupled_speedup_4_banks"
    if metric not in committed_top or metric not in fresh_top:
        print(f"note: top-level metric {metric} missing on one side, skipped")
    else:
        before, after = committed_top[metric], fresh_top[metric]
        if after < before * (1.0 - args.tolerance):
            regressions.append((("<suite>", "post", 4, 0), metric,
                                round(before, 5), round(after, 5)))

    if compared == 0:
        print("diff_bench: no comparable configurations — wrong files?")
        return 1
    for key, metric, before, after in regressions:
        name, mode, banks, bus = key
        print(f"REGRESSION: {name} ({mode}, {banks} banks, bus {bus}) "
              f"{metric} {before} -> {after} "
              f"({100.0 * (after - before) / max(before, 1):+.1f}%)")
    if regressions:
        print(f"diff_bench: {len(regressions)} regression(s) over "
              f"{compared} configurations")
        return 1
    print(f"diff_bench: OK — {compared} configurations within "
          f"{args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
