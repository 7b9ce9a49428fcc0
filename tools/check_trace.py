#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by plimc --trace.

Structural checks (all must hold):
  * the file is valid JSON with a "traceEvents" array;
  * every event carries name/ph/pid/tid/ts with sane types;
  * duration events balance: on each (pid, tid) track the B/E events
    form a well-nested stack (every B has a matching E, no E underflow);
  * complete (X) events have a non-negative dur;
  * flow events pair up: every flow start (s) has a finish (f) with the
    same id and vice versa;
  * timestamps are non-negative and finite.

Optional expectations (CI asserts trace *content*, not just shape):
  --expect-phase NAME     a duration or complete event named NAME exists
                          (repeatable);
  --expect-bank-tracks N  at least N thread_name metadata entries naming
                          "bank <i>" tracks exist — the per-bank cycle
                          timelines of decoupled execution;
  --expect-partial-waits  at least one "wait-sync" X event with
                          0 < dur < phases exists — the signature of
                          phase-level sync tokens, whose waits can be
                          shorter than a whole instruction (--phases
                          sets the instruction length, default 4).

Exit codes: 0 valid, 1 validation failed, 2 usage/IO error.
"""

import argparse
import json
import math
import sys


def fail(msg):
    print(f"check_trace: {msg}", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON file to validate")
    parser.add_argument(
        "--expect-phase",
        action="append",
        default=[],
        metavar="NAME",
        help="require a B or X event with this name (repeatable)",
    )
    parser.add_argument(
        "--expect-bank-tracks",
        type=int,
        default=0,
        metavar="N",
        help="require at least N 'bank <i>' thread_name tracks",
    )
    parser.add_argument(
        "--expect-partial-waits",
        action="store_true",
        help="require a 'wait-sync' X event shorter than one instruction",
    )
    parser.add_argument(
        "--phases",
        type=int,
        default=4,
        metavar="N",
        help="cycles per instruction for --expect-partial-waits (default 4)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        print(f"check_trace: cannot read {args.trace}: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        return fail(f"{args.trace} is not valid JSON: {err}")

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return fail('top level must be an object with a "traceEvents" array')
    events = doc["traceEvents"]
    if not events:
        return fail("traceEvents is empty")

    stacks = {}  # (pid, tid) -> open B count
    flow_starts = {}
    flow_finishes = {}
    span_names = set()
    bank_tracks = set()
    partial_waits = 0
    for i, event in enumerate(events):
        where = f"event #{i}"
        if not isinstance(event, dict):
            return fail(f"{where}: not an object")
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                return fail(f"{where}: missing {key!r}")
        ph = event["ph"]
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            return fail(f"{where}: bad ts {ts!r}")
        track = (event["pid"], event["tid"])
        if ph == "B":
            stacks[track] = stacks.get(track, 0) + 1
            span_names.add(event["name"])
        elif ph == "E":
            depth = stacks.get(track, 0)
            if depth == 0:
                return fail(f"{where}: E without a matching B on track {track}")
            stacks[track] = depth - 1
        elif ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                return fail(f"{where}: X event with bad dur {dur!r}")
            span_names.add(event["name"])
            if event["name"] == "wait-sync" and 0 < dur < args.phases:
                partial_waits += 1
        elif ph == "s":
            flow_starts.setdefault(event.get("id"), 0)
            flow_starts[event.get("id")] += 1
        elif ph == "f":
            flow_finishes.setdefault(event.get("id"), 0)
            flow_finishes[event.get("id")] += 1
        elif ph == "M":
            if event["name"] == "thread_name":
                name = event.get("args", {}).get("name", "")
                if name.startswith("bank "):
                    bank_tracks.add((event["pid"], name))
        else:
            return fail(f"{where}: unknown phase {ph!r}")

    unbalanced = {t: d for t, d in stacks.items() if d != 0}
    if unbalanced:
        return fail(f"unbalanced B/E spans on tracks: {sorted(unbalanced)}")
    if flow_starts.keys() != flow_finishes.keys():
        only_s = sorted(flow_starts.keys() - flow_finishes.keys())
        only_f = sorted(flow_finishes.keys() - flow_starts.keys())
        return fail(
            f"unpaired flow events (start-only ids: {only_s[:5]}, "
            f"finish-only ids: {only_f[:5]})"
        )

    for phase in args.expect_phase:
        if phase not in span_names:
            return fail(
                f"expected a span named {phase!r}; "
                f"saw: {sorted(span_names)[:20]}"
            )
    if args.expect_bank_tracks > 0 and len(bank_tracks) < args.expect_bank_tracks:
        return fail(
            f"expected >= {args.expect_bank_tracks} bank timeline tracks, "
            f"found {len(bank_tracks)}"
        )
    if args.expect_partial_waits and partial_waits == 0:
        return fail(
            "expected at least one partial 'wait-sync' slice "
            f"(0 < dur < {args.phases}) — phase-level sync tokens should "
            "produce waits shorter than a whole instruction"
        )

    print(
        f"check_trace: OK — {len(events)} events, "
        f"{len(span_names)} span names, {len(flow_starts)} flows, "
        f"{len(bank_tracks)} bank tracks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
