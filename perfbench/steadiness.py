#!/usr/bin/env python3
"""Steadiness check for the STBPU performance benchmark.

Runs sets of benchmark runs of one build in alternating order and prints,
per workload, set and metric, the median and quartiles of the runs. A metric
is flagged when its interquartile range exceeds its bound (as a share of the
median) or when two sets' medians differ by more than its bound. Bounds come
from BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/steadiness.py --workload replay_steady --runs 5 --sets 2

With --sets 1 it makes the proof runs: --runs runs per workload, each with
its own seed. --out writes every run's result, the summary and the machine
metadata (nproc, CPU model, kernel, compiler, build type) to a JSON file.
Exits 1 when any metric is flagged or any run fails.
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


def run_once(spec, workload, seed, seconds, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    machine = None
    for line in lines:
        if line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "exit": proc.returncode, "result": result}, machine


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs, bounds, better, sets):
    summary, flags = {}, []
    for workload in sorted({r["workload"] for r in runs}):
        per_metric = {}
        for s in range(sets):
            rows = [r for r in runs if r["workload"] == workload and r["set"] == s]
            for r in rows:
                if r["result"] is None or not r["result"]["correct"] or r["result"]["failed"]:
                    flags.append(f"{workload} set {s} seed {r['seed']}: run failed or incorrect")
                    continue
                for name, m in r["result"]["metrics"].items():
                    per_metric.setdefault(name, [[] for _ in range(sets)])[s].append(m["value"])
        out = {}
        for name, by_set in sorted(per_metric.items()):
            bound = bounds.get(name)
            stats = []
            for s, values in enumerate(by_set):
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                stats.append({"n": len(values), "median": med, "q1": q1, "q3": q3,
                              "spread": spread})
                if bound is not None and name != "setup_s" and spread > bound:
                    flags.append(f"{workload} {name} set {s}: spread {spread:.3f} > bound {bound}")
            entry = {"bound": bound, "sets": stats}
            if sets > 1 and stats[0]["median"]:
                change = stats[1]["median"] / stats[0]["median"] - 1.0
                worse = -change if better.get(name) == "higher" else change
                entry["set_change"] = change
                if bound is not None and abs(change) > bound:
                    flags.append(f"{workload} {name}: sets differ by {change:+.3f} "
                                 f"(worse by {worse:+.3f}), bound {bound}")
            out[name] = entry
        summary[workload] = out
    return summary, flags


def print_summary(summary, sets):
    for workload, metrics in summary.items():
        print(f"\n== {workload}")
        head = f"{'metric':<44} {'bound':>6}"
        for s in range(sets):
            head += f" | set{s} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>7}"
        if sets > 1:
            head += " | change"
        print(head)
        for name, e in metrics.items():
            bound = "-" if e["bound"] is None else f"{e['bound']:.3g}"
            line = f"{name:<44} {bound:>6}"
            for st in e["sets"]:
                line += (f" |      {st['median']:12.6g} {st['q1']:12.6g} {st['q3']:12.6g}"
                         f" {st['spread']:7.3f}")
            if "set_change" in e:
                line += f" | {e['set_change']:+.3f}"
            print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs (1 or 2)")
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--seed-base", type=int, default=1,
                    help="run i of every set uses seed seed-base + i")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write all runs, the summary and machine metadata here")
    args = ap.parse_args()
    if args.sets not in (1, 2):
        ap.error("--sets must be 1 or 2")

    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    runs, machine = [], None
    for i in range(args.runs):
        seed = args.seed_base + i
        order = list(range(args.sets)) if i % 2 == 0 else list(reversed(range(args.sets)))
        for s in order:
            for workload in workloads:
                run, m = run_once(spec, workload, seed, seconds, args.trace)
                machine = machine or m
                run["set"] = s
                runs.append(run)
                res = run["result"]
                status = "no result" if res is None else (
                    f"correct={res['correct']} failed={res['failed']}/{res['attempted']}")
                print(f"run {i} set {s} {workload} seed {seed}: {status} "
                      f"({run['wall_s']:.1f} s)", flush=True)

    summary, flags = summarize(runs, bounds, better, args.sets)
    print_summary(summary, args.sets)
    print()
    for f in flags:
        print("FLAG " + f)
    if not flags:
        print("no metric outside its bound")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": machine, "command": spec["command"], "seconds": seconds,
                       "trace": args.trace, "sets": args.sets, "runs": runs,
                       "summary": summary, "flags": flags}, f, indent=1)
            f.write("\n")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
