#!/usr/bin/env python3
"""Self-test of scripts/check_bench.py, the CI bench gate.

Every committed bench JSON (the smoke baselines, the full ingest run and the
fixtures under tests/data/check_bench) must pass. Then, for every bound in
the checker's table, a copy of one of them is mutated to break that bound
and no other: the checker must exit 1 and name exactly that bound. Adding a
bound without a mutation here fails the test.

  python3 tests/check_bench_selftest.py
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "scripts", "check_bench.py")
BASELINES = os.path.join(ROOT, "bench", "baselines")
FIXTURES = os.path.join(ROOT, "tests", "data", "check_bench")

# Each input is checked against itself as the baseline when its bench has
# bounds vs a baseline.
INPUTS = {
    "ingest_smoke": os.path.join(BASELINES,
                                 "BENCH_ingest_throughput_smoke.json"),
    "ingest_full": os.path.join(ROOT, "BENCH_ingest_throughput.json"),
    "archive_smoke": os.path.join(BASELINES, "BENCH_archive_tiers_smoke.json"),
    "explain_smoke": os.path.join(BASELINES, "BENCH_explain_qps_smoke.json"),
    "replication_smoke": os.path.join(FIXTURES, "replication_smoke.json"),
    "scan_view_smoke": os.path.join(FIXTURES, "scan_view_smoke.json"),
    "wal_overhead_smoke": os.path.join(FIXTURES, "wal_overhead_smoke.json"),
}


def both(**fields):
    """Sets `fields` in the run and in its baseline."""
    def mutate(cur, base):
        cur.update(fields)
        base.update(fields)
    return mutate


def run(**fields):
    """Sets `fields` in the run only."""
    return lambda cur, base: cur.update(fields)


def share_of_baseline(key, share):
    return lambda cur, base: cur.update({key: share * base[key]})


def merge_speedup_share(share):
    """Sets the run's merged/no-merge ratio to `share` of the baseline's: the
    gated field and, alike, the merged row it comes from."""
    def mutate(cur, base):
        factor = share * base["gate_merge_speedup"] / cur["gate_merge_speedup"]
        cur["gate_merge_speedup"] *= factor
        top = max(r["queries"] for r in cur["results"])
        for r in cur["results"]:
            if r["queries"] == top and r["mode"] == "batched":
                r["events_per_sec"] *= factor
    return mutate


def row(section, index, **fields):
    return lambda cur, base: cur[section][index].update(fields)


def top_batched_groups(cur, base):
    top = max(r["queries"] for r in cur["results"])
    for r in cur["results"]:
        if r["queries"] == top and r["mode"] == "batched":
            r["merge_groups"] += 1


# bound -> (input, mutation that breaks that bound only)
MUTATIONS = {
    "ingest_throughput.same_smoke_flag": ("ingest_smoke", run(smoke=False)),
    "ingest_throughput.same_batch_size": ("ingest_smoke", run(batch_size=4096)),
    "ingest_throughput.merge_speedup_vs_baseline":
        ("ingest_smoke", merge_speedup_share(0.89)),
    "ingest_throughput.match_rows":
        ("ingest_smoke",
         lambda cur, base: cur["results"][0].update(
             match_rows=cur["results"][0]["match_rows"] + 1)),
    "ingest_throughput.merge_groups": ("ingest_smoke", top_batched_groups),
    "ingest_throughput.merge_speedup":
        ("ingest_full", both(gate_merge_speedup=3.99)),
    "archive_tiers.abnormal_series_identical":
        ("archive_smoke", run(abnormal_series_identical=False)),
    "archive_tiers.tier_segments_served":
        ("archive_smoke", run(tier_segments_served=0)),
    "archive_tiers.compression_ratio":
        ("archive_smoke", both(compression_ratio_v3_over_v4=4.99)),
    "archive_tiers.compression_ratio_vs_baseline":
        ("archive_smoke",
         share_of_baseline("compression_ratio_v3_over_v4", 0.89)),
    "archive_tiers.explain_speedup":
        ("archive_smoke", both(smoke=False, explain_speedup=0.99)),
    "explain_qps.incremental_identical":
        ("explain_smoke", run(incremental_identical=False)),
    "explain_qps.legacy_identical":
        ("explain_smoke", run(legacy_identical=False)),
    "explain_qps.tail_hits":
        ("explain_smoke", run(tail_full_hits=0, tail_partial_hits=0)),
    "explain_qps.single_flight_computations":
        ("explain_smoke", run(single_flight_computations=2)),
    # The other full-run floor sits exactly at its bound, which passes.
    "explain_qps.cached_speedup":
        ("explain_smoke", both(smoke=False, cached_speedup=19.9,
                               incremental_speedup=2.0)),
    "explain_qps.incremental_speedup":
        ("explain_smoke", both(smoke=False, cached_speedup=20.0,
                               incremental_speedup=1.99)),
    "explain_qps.cached_speedup_vs_baseline":
        ("explain_smoke", share_of_baseline("cached_speedup", 0.49)),
    "explain_qps.incremental_speedup_vs_baseline":
        ("explain_smoke", share_of_baseline("incremental_speedup", 0.49)),
    "replication.all_events_applied":
        ("replication_smoke",
         lambda cur, base: cur.update(
             parent_events_applied=cur["stream_events"] - 1)),
    "replication.parent_gap_events":
        ("replication_smoke", run(parent_gap_events=1)),
    "replication.overhead_ratio": ("replication_smoke", run(overhead_ratio=0.39)),
    "replication.fanin_contamination_free":
        ("replication_smoke", row("fanin", 1, contamination_free=False)),
    "replication.fanin_shed_and_gap_events":
        ("replication_smoke", row("fanin", 2, tenant_b_shed_events=5)),
    "replication.fanin_ratio":
        ("replication_smoke", row("fanin", 2, fanin_ratio=0.29)),
    "scan_view.view_speedup":
        ("scan_view_smoke", run(smoke=False, speedup=1.99)),
    "wal_overhead.interval_vs_no_wal":
        ("wal_overhead_smoke",
         run(smoke=False, gate_interval_vs_no_wal=0.84)),
}


def load_checker():
    spec = importlib.util.spec_from_file_location("check_bench", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def needs_baseline(checker, doc):
    return any(b.vs_baseline for b in checker.BOUNDS[doc["bench"]])


def run_checker(tmp, cur, base):
    """Writes the run (and its baseline, if given) and runs the checker.

    Returns (exit status, failed bound names, output)."""
    cur_path = os.path.join(tmp, "current.json")
    with open(cur_path, "w", encoding="utf-8") as f:
        json.dump(cur, f)
    argv = [sys.executable, CHECKER, cur_path]
    if base is not None:
        base_path = os.path.join(tmp, "baseline.json")
        with open(base_path, "w", encoding="utf-8") as f:
            json.dump(base, f)
        argv += ["--baseline", base_path]
    proc = subprocess.run(argv, capture_output=True, text=True)
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith("FAIL "):
            failed.add(line.split()[1].split("[")[0].rstrip(":"))
    return proc.returncode, failed, proc.stdout + proc.stderr


def main():
    checker = load_checker()
    problems = []
    docs = {}
    for name, path in INPUTS.items():
        with open(path, encoding="utf-8") as f:
            docs[name] = json.load(f)

    bounds = {f"{bench}.{b.name}"
              for bench, table in checker.BOUNDS.items() for b in table}
    if set(MUTATIONS) != bounds:
        problems.append(
            f"bounds without a mutation: {sorted(bounds - set(MUTATIONS))}; "
            f"mutations of no bound: {sorted(set(MUTATIONS) - bounds)}")

    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            base = doc if needs_baseline(checker, doc) else None
            status, failed, out = run_checker(tmp, doc, base)
            verdict = "pass" if status == 0 and not failed else "FAILED"
            print(f"{verdict}: {name} as committed")
            if verdict != "pass":
                problems.append(f"{name} should pass:\n{out}")

        for bound, (name, mutate) in sorted(MUTATIONS.items()):
            cur = copy.deepcopy(docs[name])
            base = copy.deepcopy(docs[name])
            mutate(cur, base)
            status, failed, out = run_checker(
                tmp, cur, base if needs_baseline(checker, cur) else None)
            ok = status == 1 and failed == {bound}
            print(f"{'pass' if ok else 'FAILED'}: {name} mutated against "
                  f"{bound} -> exit {status}, failed {sorted(failed)}")
            if not ok:
                problems.append(f"mutation of {bound}:\n{out}")

        # Usage errors exit 2; a missing field fails the bound that reads it.
        usage = [
            ("unknown bench tag", dict(docs["scan_view_smoke"], bench="nope"),
             None),
            ("missing --baseline", docs["ingest_smoke"], None),
            ("baseline of another bench", docs["archive_smoke"],
             docs["explain_smoke"]),
        ]
        missing = os.path.join(tmp, "missing.json")
        proc = subprocess.run([sys.executable, CHECKER, missing],
                              capture_output=True, text=True)
        print(f"{'pass' if proc.returncode == 2 else 'FAILED'}: unreadable "
              f"file -> exit {proc.returncode}")
        if proc.returncode != 2:
            problems.append(f"unreadable file should exit 2:\n{proc.stdout}")
        for what, cur, base in usage:
            status, failed, out = run_checker(tmp, cur, base)
            print(f"{'pass' if status == 2 else 'FAILED'}: {what} -> exit "
                  f"{status}")
            if status != 2:
                problems.append(f"{what} should exit 2:\n{out}")
        cur = copy.deepcopy(docs["replication_smoke"])
        del cur["overhead_ratio"]
        status, failed, out = run_checker(tmp, cur, None)
        ok = status == 1 and failed == {"replication.overhead_ratio"}
        print(f"{'pass' if ok else 'FAILED'}: missing field -> exit {status}, "
              f"failed {sorted(failed)}")
        if not ok:
            problems.append(f"missing field:\n{out}")

    if problems:
        print("\n".join(["", "check_bench selftest FAILED:"] + problems))
        return 1
    print(f"\ncheck_bench selftest: {len(docs)} inputs pass, "
          f"{len(MUTATIONS)} mutations each fail their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
