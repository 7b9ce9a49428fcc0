#!/usr/bin/env python3
"""Compare a fresh bench trajectory against the committed one.

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

Improvements never fail the diff, but they are listed (every config
and metric that moved the right way by more than the tolerance), and a
geomean old/new ratio is printed for each gated metric over the
configurations where both sides are positive — so a log shows what
re-pinning the committed file locks in.

Every per-configuration block is one plim::StatsReport — the schema
shared with `plimc --json` / `plimc --batch`: schedule metrics live in
the nested "schedule" object (pre-facade trajectories carried them at
the top level; both shapes are accepted so the diff can bridge the
schema migration). A serial report (no "schedule" object, as in the
capacity sweep) is a one-bank program issuing one instruction per step:
it is matched as 1 bank, and its instruction count is its step count.

With --exact the diff instead fails on any difference, in either
direction, in the deterministic fields of configurations present on
both sides — every field of each configuration's whole report (gates,
instructions, cells, the rewrite counters, and every schedule field:
steps, transfers, makespan_cycles, rrams, sync tokens, the refine
counters, ...) and the top-level headlines — so a change that must keep
every emitted program identical can prove it. Timing fields (`*_ms`)
are ignored; the sweep's `effort` is compared like any other field, so
the fresh sweep must run at the effort the committed file records. A
field present on only one side is listed as schema growth.

Usage: diff_bench.py committed.json fresh.json [--tolerance 0.05 | --exact]
"""

import argparse
import json
import math
import sys


# Gated per-configuration metrics: (name, higher_is_better).
GATED = (("steps", False), ("transfers", False), ("makespan_cycles", False),
         ("rrams", False), ("refine_steps_saved", True))


def sched(block):
    """Schedule metrics of one config block (StatsReport or legacy flat)."""
    if isinstance(block.get("schedule"), dict):
        return block["schedule"]
    if "steps" not in block and "instructions" in block:
        return {**block, "banks": 1, "steps": block["instructions"]}
    return block


def entries(trajectory):
    """Yield ((benchmark, mode, banks, bus_width), block): each
    configuration's whole report."""
    for bench in trajectory.get("benchmarks", []):
        name = bench.get("benchmark", "?")
        for mode, payload in bench.items():
            if mode == "benchmark":
                continue
            if isinstance(payload, dict) and isinstance(
                    payload.get("banks"), list):
                for block in payload["banks"]:
                    entry = sched(block)
                    yield (name, mode, entry["banks"], entry.get("bus_width", 0)), block
                for block in payload.get("bus_4banks", []):
                    yield (name, mode, 4, sched(block).get("bus_width", 0)), block
            elif isinstance(payload, dict):
                entry = sched(payload)
                if "steps" in entry:
                    # flat single-config blocks (e.g. unclustered_4banks)
                    yield (name, mode, entry.get("banks", 0),
                           entry.get("bus_width", 0)), payload


def scalars(block):
    """The block's scalar fields, nested objects flattened to `a.b` and
    lists of scalars kept as tuples; lists of objects are left out."""
    flat = {}
    for field, value in block.items():
        if isinstance(value, dict):
            for inner, v in scalars(value).items():
                flat[f"{field}.{inner}"] = v
        elif not isinstance(value, list):
            flat[field] = value
        elif all(not isinstance(v, (dict, list)) for v in value):
            flat[field] = tuple(value)
    return flat


def exact_diff(committed_top, fresh_top, committed, fresh):
    """--exact: every deterministic field must match on both sides."""
    differences = []
    growth = set()

    def compare(where, old, new):
        for field in sorted(set(old) | set(new)):
            if field.endswith("_ms"):
                continue  # wall-clock
            if field not in old or field not in new:
                growth.add(field)
            elif old[field] != new[field]:
                differences.append(f"{where} {field}: {old[field]} -> "
                                   f"{new[field]}")

    compare("<suite>", scalars(committed_top), scalars(fresh_top))
    compared = 0
    for key, old in sorted(committed.items()):
        new = fresh.get(key)
        if new is None:
            print(f"note: {key} only in committed trajectory")
            continue
        compared += 1
        compare(key, scalars(old), scalars(new))
    for key in sorted(set(fresh) - set(committed)):
        print(f"note: {key} only in fresh trajectory")
    for field in sorted(growth):
        print(f"note: field {field} only on one side (schema growth)")
    if compared == 0:
        print("diff_bench: no comparable configurations — wrong files?")
        return 1
    for line in differences:
        print(f"DIFFERENT: {line}")
    if differences:
        print(f"diff_bench: {len(differences)} difference(s) over "
              f"{compared} configurations")
        return 1
    print(f"diff_bench: OK — {compared} configurations identical outside "
          f"timing fields")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative regression (default 5%%)")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any difference outside timing fields")
    args = parser.parse_args()

    with open(args.committed) as f:
        committed_top = json.load(f)
    with open(args.fresh) as f:
        fresh_top = json.load(f)
    committed = dict(entries(committed_top))
    fresh = dict(entries(fresh_top))
    if args.exact:
        return exact_diff(committed_top, fresh_top, committed, fresh)

    regressions = []
    improvements = []
    ratios = {metric: [] for metric, _ in GATED}
    compared = 0
    missing_metrics = set()

    def judge(key, metric, before, after, higher_is_better):
        """Records a move beyond the tolerance either way."""
        if higher_is_better:
            if before <= 0:
                return  # zero-yield configs cannot trap noise
            worse = after < before * (1.0 - args.tolerance)
            better = after > before * (1.0 + args.tolerance)
        else:
            worse = after > before * (1.0 + args.tolerance)
            better = after < before * (1.0 - args.tolerance)
        if worse:
            regressions.append((key, metric, before, after))
        elif better:
            improvements.append((key, metric, before, after))

    for key, old in sorted(committed.items()):
        new = fresh.get(key)
        if new is None:
            print(f"note: {key} only in committed trajectory")
            continue
        compared += 1
        old, new = sched(old), sched(new)
        for metric, higher_is_better in GATED:
            if metric not in old or metric not in new:
                missing_metrics.add(metric)
                continue
            before, after = old[metric], new[metric]
            judge(key, metric, before, after, higher_is_better)
            if before > 0 and after > 0:
                ratios[metric].append(before / after)
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
        judge(("<suite>", "post", 4, 0), metric, committed_top[metric],
              fresh_top[metric], True)

    if compared == 0:
        print("diff_bench: no comparable configurations — wrong files?")
        return 1

    def describe(key, metric, before, after):
        name, mode, banks, bus = key
        return (f"{name} ({mode}, {banks} banks, bus {bus}) {metric} "
                f"{before} -> {after} "
                f"({100.0 * (after - before) / max(before, 1):+.1f}%)")

    for move in improvements:
        print(f"IMPROVED: {describe(*move)}")
    for metric, _ in GATED:
        values = ratios[metric]
        if values:
            geomean = math.exp(sum(math.log(v) for v in values) / len(values))
            print(f"geomean old/new {metric}: {geomean:.4f} "
                  f"over {len(values)} configurations")
    for move in regressions:
        print(f"REGRESSION: {describe(*move)}")
    if regressions:
        print(f"diff_bench: {len(regressions)} regression(s) over "
              f"{compared} configurations")
        return 1
    print(f"diff_bench: OK — {compared} configurations within "
          f"{args.tolerance:.0%} ({len(improvements)} improvement(s) beyond "
          f"it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
