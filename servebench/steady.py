#!/usr/bin/env python3
"""Steadiness tool for the serve benchmark.

One set (the default): K runs per workload, each with its own seed, and
for every end-to-end metric the median, the quartiles, the spread
(interquartile distance / median) and the spread as a share of the
metric's bound in BENCHMARK.json.

    python3 servebench/steady.py --runs 10
    python3 servebench/steady.py --runs 5 --workloads large-list

Two sets (--sets 2): the runs of set A and set B are interleaved in time,
alternating which set goes first, and the tool fails (exit 1) when any
metric's set medians differ by more than its bound. Each set's
host.ref_ms (a fixed computation the client times at the start and end
of every run) and host.steal_share (the share of CPU time the hypervisor
gave to other guests during each timed phase) are printed, so host-speed
drift shows apart from a program change.

Every result line is validated: correct must be true and the metrics must
be exactly the end-to-end metrics of BENCHMARK.json, with their units.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    if proc.returncode != 0:
        raise SystemExit("run failed (%s seed %d):\n%s" % (workload, seed, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = None
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    check_result(spec, workload, seed, result)
    ref = host["host.ref_ms"] if host else [0.0, 0.0]
    steal = host.get("host.steal_share", 0.0) if host else 0.0
    return result, ref, steal, wall


def check_result(spec, workload, seed, result):
    where = "%s seed %d" % (workload, seed)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True:
        raise SystemExit("%s: correct is %s" % (where, result["correct"]))
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        raise SystemExit("%s: metrics %s differ from BENCHMARK.json %s" % (where, got, want))
    for k, v in result["metrics"].items():
        if not v["value"]:
            raise SystemExit("%s: metric %s is 0" % (where, k))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", help="write every result to this JSON file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    sets = "AB"[: args.sets]
    results = {(s, w): [] for s in sets for w in workloads}
    refs = {s: [] for s in sets}
    steals = {s: [] for s in sets}
    for i in range(args.runs):
        order = sets if i % 2 == 0 else sets[::-1]
        for w in workloads:
            for s in order:
                seed = args.seed_base + i + (1000 if s == "B" else 0)
                result, ref, steal, wall = run_once(spec, w, seed)
                results[(s, w)].append(result)
                refs[s].extend(ref)
                steals[s].append(steal)
                print("%s %-12s seed %-5d %5.1fs host.ref_ms %.2f/%.2f host.steal_share %.3f" % (
                    s, w, seed, wall, ref[0], ref[1], steal), file=sys.stderr)
    failed = False
    for s in sets:
        print("set %s host.ref_ms median %.3f (min %.3f, max %.3f over %d readings)" % (
            s, statistics.median(refs[s]), min(refs[s]), max(refs[s]), len(refs[s])))
        print("set %s host.steal_share median %.3f (min %.3f, max %.3f over %d runs)" % (
            s, statistics.median(steals[s]), min(steals[s]), max(steals[s]), len(steals[s])))
    for w in workloads:
        print("\n== %s (%d runs per set)" % (w, args.runs))
        print("%-22s %5s %12s %12s %12s %8s %8s" % ("metric", "set", "median", "q1", "q3", "spread", "/bound"))
        for m in spec["end_to_end"]:
            meds = {}
            for s in sets:
                values = [r["metrics"][m["name"]]["value"] for r in results[(s, w)]]
                med, q1, q3, spread = summarize(values)
                meds[s] = med
                share = spread / m["bound"]
                flag = "" if share < 1 / 3 else "  <-- above a third of its bound"
                print("%-22s %5s %12.5g %12.5g %12.5g %8.4f %8.3f%s" % (
                    m["name"], s, med, q1, q3, spread, share, flag))
            if len(sets) == 2:
                rel = (meds["B"] - meds["A"]) / meds["A"] if meds["A"] else 0.0
                bad = abs(rel) > m["bound"]
                failed |= bad
                print("%-22s  B vs A: %+.4f of A (bound %.2f)%s" % (
                    m["name"], rel, m["bound"], "  FAIL" if bad else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"%s/%s" % k: v for k, v in results.items()}
                      | {"host.ref_ms": refs, "host.steal_share": steals}, f, indent=1)
    if failed:
        print("\nFAIL: set medians differ by more than a bound", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
