#!/usr/bin/env python3
"""Steadiness helper: runs workloads N times with different seeds and prints
each metric's median, quartiles and spread (q3 - q1) / median.

Run from the root of a checkout:

    python3 vizbench/steady.py --workload zoom_pan --runs 5
    python3 vizbench/steady.py --runs 10 --sets 2
    python3 vizbench/steady.py --runs 10 --save set1.json
    python3 vizbench/steady.py --runs 10 --against set1.json

Without --workload every workload in BENCHMARK.json runs. Every end-to-end
metric's spread, setup_s's too, is compared with its bound from
BENCHMARK.json. --sets 2 runs two sets of --runs seeds each (the second set
takes the next seeds), alternating run by run so that a drift of the host
falls on both, and compares the second set's medians with the first's.
--against compares the first set's medians with a set saved by --save. A
median that got worse by more than its bound is flagged. Exits non-zero
when any run fails or any check is flagged.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = [l for l in proc.stderr.splitlines() if not l.startswith("[")]
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + "\n".join(tail[-15:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    steal = None
    if len(lines) > 1 and lines[-2].startswith("# provenance "):
        for note in json.loads(lines[-2][len("# provenance "):])["notes"]:
            if note.startswith("host: steal "):
                steal = float(note.split()[2].rstrip("%"))
    return {k: v["value"] for k, v in result["metrics"].items()}, steal


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def report(title, runs, metrics, baseline, baseline_name):
    """Prints one set's table; returns its summary and whether it failed a
    check."""
    flagged = False
    summary = {}
    print(title)
    print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]:
        s = summarize([r[name] for r in runs])
        summary[name] = s
        metric = metrics.get(name)
        bound = metric["bound"] if metric else None
        notes = []
        if bound is not None and s["spread"] > bound:
            notes.append("SPREAD > BOUND")
            flagged = True
        elif bound is not None and s["spread"] > bound / 3:
            notes.append("spread > bound/3")
        old = (baseline or {}).get(name)
        if old and bound is not None:
            change = s["median"] / old["median"] - 1 if old["median"] else 0
            worse = change if metric["better"] == "lower" else -change
            notes.append(f"vs {baseline_name} {change:+.3f}")
            if worse > bound:
                notes.append("WORSE THAN BOUND")
                flagged = True
        print(f"  {name:40s} {s['median']:12.5g} {s['q1']:12.5g} "
              f"{s['q3']:12.5g} {s['spread']:8.3f} "
              f"{'' if bound is None else bound:>6} {' '.join(notes)}")
    return summary, flagged


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    flagged = False
    first_sets = {}
    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        wall, steals = [], []
        for i in range(args.runs):
            for k in range(args.sets):
                seed = args.first_seed + k * args.runs + i
                t0 = time.monotonic()
                try:
                    metrics_of_run, steal = run_once(workload, seed, seconds,
                                                     args.trace)
                    sets[k].append(metrics_of_run)
                    steals.append(steal)
                except RuntimeError as e:
                    print(f"FAILED {e}")
                    flagged = True
                wall.append(time.monotonic() - t0)
        print(f"{workload}: wall seconds per run: median "
              f"{statistics.median(wall):.1f}, max {max(wall):.1f}")
        # A busy shared host shows as steal; runs with high steal are
        # slower for reasons outside the program.
        print(f"{workload}: host steal % per run, in run order: " +
              " ".join("?" if x is None else f"{x:.1f}" for x in steals))
        first = None
        for k, runs in enumerate(sets):
            if len(runs) < 2:
                flagged = True
                continue
            first_seed = args.first_seed + k * args.runs
            title = (f"{workload} set {k + 1}: {len(runs)} runs, seeds "
                     f"{first_seed}..{first_seed + args.runs - 1}")
            if k == 0:
                baseline, name = saved.get(workload), "saved"
            else:
                baseline, name = first, "set 1"
            summary, bad = report(title, runs, metrics, baseline, name)
            flagged |= bad
            if k == 0:
                first = summary
        if first is not None:
            first_sets[workload] = first
    if args.save:
        with open(args.save, "w") as f:
            json.dump(first_sets, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
