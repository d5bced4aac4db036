#!/usr/bin/env python3
"""Collect benchmark runs and compare two sets of them (stdlib only).

    python3 perfbench/compare.py collect --workload serve --seeds 1-10 --out a.jsonl
    python3 perfbench/compare.py spread a.jsonl
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

collect runs perfbench/run.py once per seed and appends each result line,
tagged with its workload and seed, to --out. spread reports, for each
(workload, metric), the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) against the metric's bound
in BENCHMARK.json. diff compares a parent set with a change set run on the
same seeds: a metric regressed if the change's median is worse than the
parent's by more than its bound, and improved if the change wins at least
nine of ten seed pairs and the medians differ by more than the parent's
own quartile distance. Where the parent's spread exceeds the bound the
metric is unresolved unless every change run beats every parent run. diff
exits 1 if any metric regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = dict(m, layer=False)
    for m in bench["per_layer"]:
        metrics[m["name"]] = dict(m, layer=True, bound=None)
    return bench, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    bench, _ = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout)
            sys.exit("compare.py: %s seed %d failed (exit %d)" % (args.workload, seed, proc.returncode))
        result = json.loads(lines[-1])
        rec = {"workload": args.workload, "seed": seed, "trace": args.trace, "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(rec) + "\n")
        print("%s seed %d: %s" % (args.workload, seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))), flush=True)


def read_runs(paths):
    """Returns {(workload, metric): {seed: value}} over untraced runs."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                if not rec["result"]["correct"]:
                    sys.exit("compare.py: %s has an incorrect run (%s seed %d)"
                             % (path, rec["workload"], rec["seed"]))
                for name, m in rec["result"]["metrics"].items():
                    runs.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    _, metrics = load_bench()
    runs = read_runs(args.files)
    print("%-10s %-28s %4s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "status"))
    worst = "ok"
    for (workload, name), by_seed in sorted(runs.items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        sp = (q3 - q1) / med if med else float("inf")
        bound = metrics.get(name, {}).get("bound")
        status = ""
        if bound is not None:
            if sp <= bound / 3:
                status = "steady"
            elif sp <= bound or name == "setup_s":
                status = "within bound"
            else:
                status = "OVER BOUND"
                worst = "over"
        print("%-10s %-28s %4d %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            workload, name, len(values), q1, med, q3, sp,
            "" if bound is None else "%.2f" % bound, status))
    return 1 if worst == "over" else 0


def worse(better, base, change):
    return change > base if better == "lower" else change < base


def diff(args):
    _, metrics = load_bench()
    base, change = read_runs([args.parent]), read_runs([args.change])
    print("%-10s %-28s %12s %12s %8s %7s  %s" % (
        "workload", "metric", "parent", "change", "delta", "wins", "verdict"))
    regressed = False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        m = metrics.get(name)
        if m is None or m["layer"]:
            continue
        b, c = base[key], change[key]
        bq1, bmed, bq3 = quartiles(list(b.values()))
        _, cmed, _ = quartiles(list(c.values()))
        seeds = sorted(set(b) & set(c))
        wins = sum(1 for s in seeds if worse(m["better"], c[s], b[s]))
        delta = (cmed - bmed) / bmed if bmed else float("inf")
        spread_ = (bq3 - bq1) / bmed if bmed else float("inf")
        every = all(worse(m["better"], cv, bv) for cv in c.values() for bv in b.values())
        if worse(m["better"], bmed, cmed) and abs(delta) > m["bound"]:
            verdict = "REGRESSED"
            regressed = True
        elif seeds and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > (bq3 - bq1):
            verdict = "improved"
        elif spread_ > m["bound"] and not every:
            verdict = "unresolved"
        else:
            verdict = "no change"
        print("%-10s %-28s %12.6g %12.6g %+7.1f%% %3d/%-3d  %s" % (
            workload, name, bmed, cmed, 100 * delta, wins, len(seeds), verdict))
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if args.cmd == "spread":
        return spread(args)
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
