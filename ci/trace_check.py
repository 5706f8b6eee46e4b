#!/usr/bin/env python3
"""Validate telemetry artifacts emitted by the bench binaries.

Two checks, both asserting structure rather than numbers:

 1. The metrics snapshot (telemetry::snapshotJson()) parses as JSON and
    has the documented top-level shape: "counters", "gauges" and
    "histograms" objects, every histogram entry carrying count/sum and
    the percentile fields.

 2. The Chrome trace (telemetry::writeTrace()) parses as trace-event
    JSON and contains at least one complete ("ph": "X") event for every
    instrumented subsystem category: codec, ground, archive, pool, bg.

Usage:
    python3 ci/trace_check.py --metrics <metrics.json> --trace <trace.json>
        [--require-counter NAME]... [--require-span NAME]...

Either flag may be given alone. The repeatable --require-counter NAME
flag additionally asserts that the metrics snapshot contains counter
NAME with a value > 0 — the chaos job uses it to prove the recovery
counters (archive.tail_truncated, archive.fsync_failures) actually
moved during the fault run. The repeatable --require-span NAME flag
mirrors it for the trace: at least one complete event named NAME must
be present — the bench job uses it to prove the codec's per-stage
spans (codec.transform, codec.entropy_chunk) were recorded. Exits
non-zero with a diagnostic when a file is missing, unparsable, or
structurally wrong.
"""

import argparse
import json
import sys

REQUIRED_CATEGORIES = ("codec", "ground", "archive", "pool", "bg", "net")
HISTOGRAM_FIELDS = ("count", "sum", "mean", "p50", "p90", "p99",
                    "p999", "max")


def fail(msg):
    print(f"trace_check: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {what} {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{what} {path} is not valid JSON: {e}")


def check_metrics(path, required_counters=()):
    snap = load(path, "metrics snapshot")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snap.get(section), dict):
            fail(f"{path}: missing or non-object '{section}' section")
    for name, hist in snap["histograms"].items():
        for field in HISTOGRAM_FIELDS:
            if not isinstance(hist.get(field), (int, float)):
                fail(f"{path}: histogram '{name}' lacks numeric "
                     f"'{field}'")
    for name in required_counters:
        value = snap["counters"].get(name)
        if not isinstance(value, (int, float)):
            fail(f"{path}: required counter '{name}' is absent "
                 f"(have: {', '.join(sorted(snap['counters'])) or 'none'})")
        if value <= 0:
            fail(f"{path}: required counter '{name}' never moved "
                 f"(value {value})")
    print(f"trace_check: {path}: {len(snap['counters'])} counters, "
          f"{len(snap['gauges'])} gauges, "
          f"{len(snap['histograms'])} histograms"
          + (f"; required counters OK: {', '.join(required_counters)}"
             if required_counters else ""))


def check_trace(path, required_spans=()):
    trace = load(path, "trace")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing 'traceEvents' array")
    complete = {}
    names = set()
    for ev in events:
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        for field in ("name", "cat", "ts", "dur", "pid", "tid"):
            if field not in ev:
                fail(f"{path}: complete event lacks '{field}': {ev}")
        complete[ev["cat"]] = complete.get(ev["cat"], 0) + 1
        names.add(ev["name"])
    missing = [c for c in REQUIRED_CATEGORIES if not complete.get(c)]
    if missing:
        fail(f"{path}: no complete events for subsystem(s): "
             f"{', '.join(missing)} (got {complete})")
    for name in required_spans:
        if name not in names:
            fail(f"{path}: required span '{name}' is absent "
                 f"(have: {', '.join(sorted(names)) or 'none'})")
    total = sum(complete.values())
    print(f"trace_check: {path}: {total} complete events across "
          f"{len(complete)} categories"
          + (f"; required spans OK: {', '.join(required_spans)}"
             if required_spans else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", help="snapshotJson() output to check")
    parser.add_argument("--trace", help="writeTrace() output to check")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="assert the metrics snapshot has counter "
                             "NAME with value > 0 (repeatable)")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="assert the trace has at least one complete "
                             "event named NAME (repeatable)")
    args = parser.parse_args()
    if not args.metrics and not args.trace:
        fail("nothing to check: pass --metrics and/or --trace")
    if args.require_counter and not args.metrics:
        fail("--require-counter needs --metrics")
    if args.require_span and not args.trace:
        fail("--require-span needs --trace")
    if args.metrics:
        check_metrics(args.metrics, args.require_counter)
    if args.trace:
        check_trace(args.trace, args.require_span)
    print("trace_check: OK")


if __name__ == "__main__":
    main()
