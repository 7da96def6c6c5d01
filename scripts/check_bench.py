#!/usr/bin/env python3
"""The CI gate for every bench JSON (BENCH_*.json).

  check_bench.py CURRENT.json [--baseline BASELINE.json]

The JSON's "bench" tag picks its rows of BOUNDS below; each bound is written
there once. Every bound is machine-independent: a boolean, an exact count, or
a ratio whose two sides ran on the same host seconds apart. Absolute speeds
are never gated. A bound marked FULL applies to full runs only: the smoke
workloads are too small for that ratio to clear the floor reliably.

A bound "vs baseline" compares the run with a committed baseline from the
same bench (bench/baselines/*_smoke.json): it must equal it, stay at or
below it, or keep at least the given share of it. A bench with such bounds
needs --baseline.

Exit status: 0 when every bound holds; 1 when one does not (each failure is
printed as "FAIL <bench>.<bound>: ..."); 2 on a usage error: an unreadable
file, a bench tag with no bounds, a baseline from another bench or a missing
--baseline.
"""

import argparse
import json
import operator
import sys
from collections import namedtuple

FULL = True  # the bound applies to full runs only

# op: ">=", "==" or "<=". value: the bound itself or, when vs_baseline is
# set, the factor the baseline's value is multiplied by (None: the baseline's
# value as it is).
Bound = namedtuple("Bound", "name metric op value vs_baseline full_only")


def floor(name, metric, value, full_only=False):
    return Bound(name, metric, ">=", value, False, full_only)


def equals(name, metric, value):
    return Bound(name, metric, "==", value, False, False)


def vs_baseline(name, metric, op, factor=None):
    return Bound(name, metric, op, factor, True, False)


# A metric maps a bench JSON to {label: value}; the label names the row for
# per-row metrics and is "" otherwise.
def field(key):
    return lambda doc: {"": doc[key]}


def derived(fn):
    return lambda doc: {"": fn(doc)}


def rows(section, label_keys, value, where=lambda row, doc: True):
    """One value per row of doc[section]; `value` is a key or a function."""
    def metric(doc):
        out = {}
        for row in doc[section]:
            if where(row, doc):
                label = ",".join(f"{k}={row[k]}" for k in label_keys)
                out[label] = value(row) if callable(value) else row[value]
        if not out:
            raise KeyError(f"no rows in {section!r}")
        return out
    return metric


def top_batched(row, doc):
    top = max(r["queries"] for r in doc["results"])
    return row["queries"] == top and row["mode"] == "batched"


BOUNDS = {
    "ingest_throughput": [
        vs_baseline("same_smoke_flag", field("smoke"), "=="),
        vs_baseline("same_batch_size", field("batch_size"), "=="),
        # Merged / no-merge batched events/s at the top query count: at most
        # a 10% drop.
        vs_baseline("merge_speedup_vs_baseline",
                    field("gate_merge_speedup"), ">=", 0.9),
        # Seeded and deterministic: exact on any machine.
        vs_baseline("match_rows",
                    rows("results", ("queries", "mode"), "match_rows"), "=="),
        vs_baseline("merge_groups",
                    rows("results", ("queries", "mode"), "merge_groups",
                         top_batched), "<="),
        floor("merge_speedup", field("gate_merge_speedup"), 4.0, FULL),
    ],
    "archive_tiers": [
        # Tiers may only answer reference-side scans.
        equals("abnormal_series_identical",
               field("abnormal_series_identical"), True),
        # Zero would mean the timing compared identical code paths.
        floor("tier_segments_served", field("tier_segments_served"), 1),
        floor("compression_ratio", field("compression_ratio_v3_over_v4"), 5.0),
        vs_baseline("compression_ratio_vs_baseline",
                    field("compression_ratio_v3_over_v4"), ">=", 0.9),
        floor("explain_speedup", field("explain_speedup"), 1.0, FULL),
    ],
    "explain_qps": [
        equals("incremental_identical", field("incremental_identical"), True),
        equals("legacy_identical", field("legacy_identical"), True),
        # The incremental pass must really have answered from the tails.
        floor("tail_hits",
              derived(lambda d: d["tail_full_hits"] + d["tail_partial_hits"]),
              1),
        equals("single_flight_computations",
               field("single_flight_computations"), 1),
        floor("cached_speedup", field("cached_speedup"), 20.0, FULL),
        floor("incremental_speedup", field("incremental_speedup"), 2.0, FULL),
        # Smoke ratios are noisy, hence the loose 0.5.
        vs_baseline("cached_speedup_vs_baseline",
                    field("cached_speedup"), ">=", 0.5),
        vs_baseline("incremental_speedup_vs_baseline",
                    field("incremental_speedup"), ">=", 0.5),
    ],
    "replication": [
        equals("all_events_applied",
               derived(lambda d: d["parent_events_applied"] ==
                       d["stream_events"]), True),
        equals("parent_gap_events", field("parent_gap_events"), 0),
        # Replicated / standalone child ingest events/s.
        floor("overhead_ratio", field("overhead_ratio"), 0.4),
        equals("fanin_contamination_free",
               rows("fanin", ("children",), "contamination_free"), True),
        equals("fanin_shed_and_gap_events",
               rows("fanin", ("children",),
                    lambda r: r["tenant_a_shed_events"] +
                    r["tenant_b_shed_events"] + r["gap_events"]), 0),
        # N-children / 1-child aggregate events/s.
        floor("fanin_ratio", rows("fanin", ("children",), "fanin_ratio"), 0.3),
    ],
    "scan_view": [
        floor("view_speedup", field("speedup"), 2.0, FULL),
    ],
    "wal_overhead": [
        # fsync=interval / no-WAL events/s on the 1000-query tier.
        floor("interval_vs_no_wal", field("gate_interval_vs_no_wal"), 0.85,
              FULL),
    ],
}

OPS = {">=": operator.ge, "==": operator.eq, "<=": operator.le}


def show(value):
    return f"{value:.4g}" if isinstance(value, float) else repr(value)


def check(bench, doc, base):
    """Prints one line per bound (and row); returns the failed bound names."""
    failed = []
    full_run = not doc.get("smoke", False)
    for bound in BOUNDS[bench]:
        name = f"{bench}.{bound.name}"
        if bound.full_only and not full_run:
            print(f"skip {name}: full runs only")
            continue
        try:
            values = bound.metric(doc)
            if not bound.vs_baseline:
                limits = {label: bound.value for label in values}
            elif bound.value is None:
                limits = bound.metric(base)
            else:
                limits = {label: bound.value * v
                          for label, v in bound.metric(base).items()}
        except (KeyError, TypeError, ValueError) as e:
            print(f"FAIL {name}: missing or malformed field {e}")
            failed.append(name)
            continue
        ok = True
        for label, limit in limits.items():
            where = f"[{label}]" if label else ""
            if label not in values:
                print(f"FAIL {name}{where}: row missing from the run")
                ok = False
                continue
            held = OPS[bound.op](values[label], limit)
            verdict = "ok  " if held else "FAIL"
            source = " (baseline)" if bound.vs_baseline else ""
            print(f"{verdict} {name}{where}: {show(values[label])} {bound.op} "
                  f"{show(limit)}{source}")
            ok = ok and held
        if not ok:
            failed.append(name)
    return failed


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"usage error: cannot read {path}: {e}")
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description="Check a bench JSON against its bounds.")
    parser.add_argument("current", help="the BENCH_*.json to check")
    parser.add_argument("--baseline", help="committed baseline of the bench")
    args = parser.parse_args()

    doc = load(args.current)
    bench = doc.get("bench")
    if bench not in BOUNDS:
        print(f"usage error: {args.current}: no bounds for bench {bench!r}")
        return 2
    base = None
    if args.baseline:
        base = load(args.baseline)
        if base.get("bench") != bench:
            print(f"usage error: {args.baseline} is a {base.get('bench')!r} "
                  f"run, not {bench!r}")
            return 2
    elif any(b.vs_baseline for b in BOUNDS[bench]):
        print(f"usage error: {bench} has bounds vs a baseline; pass --baseline")
        return 2

    failed = check(bench, doc, base)
    run = "full" if not doc.get("smoke", False) else "smoke"
    if failed:
        print(f"FAIL: {len(failed)} bound(s) of {bench} ({run} run): "
              + ", ".join(failed))
        return 1
    print(f"PASS: {bench} ({run} run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
