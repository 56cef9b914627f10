#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics: run each workload on several seeds.

    python3 perfbench/steady.py --set first --first-seed 1 --out perfbench/baseline.json
    python3 perfbench/steady.py --set second --first-seed 1 --out perfbench/baseline.json

Runs perfbench/run.py once per (workload, seed), one run at a time, and
reports per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged ("wide").

--out names a baseline file holding two sets of runs, "first_set" and
"second_set"; this run is written as --set and the other set in the file is
kept.  The second set is compared with the first: how much worse each
median got, as a share of the first median, flagged when that exceeds the
bound.  On the seeds both sets ran, the result's attempted and failed must
be equal: they count the distinct items of one seed, so they may not
depend on the run.  --compare takes another baseline file and compares
with its first set instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ABOUT = ("Two ten-seed sets of the same code (perfbench/steady.py), one after the other.  Per "
         "workload and metric: the value of each run, median, quartiles, spread = (q3 - q1) / "
         "median, the bound from BENCHMARK.json, and for the second set worse_than_before, the "
         "share by which its median is worse than the first set's.")


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--set", choices=("first", "second"), default="first")
    ap.add_argument("--out", type=Path, help="baseline file to write this set into")
    ap.add_argument("--compare", type=Path, help="baseline file whose first set to compare with")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    baseline = (json.loads(args.out.read_text()) if args.out and args.out.exists()
                else {"about": ABOUT})
    reference = args.compare or (args.out if args.set == "second" else None)
    before = {}
    if reference is not None and reference.exists():
        before = json.loads(reference.read_text()).get("first_set", {}).get("workloads", {})
    key = args.set + "_set"
    report = dict(baseline.get(key, {}), runs=args.runs, seconds=args.seconds)
    report.setdefault("workloads", {})
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        details = []
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            detail, result = run_once(workload, seed, args.seconds)
            details.append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "counts": detail["counts"], "item_tail": detail["item_tail"],
                            "passes": detail["passes"], "measured": detail["measured"]})
            baseline["env"] = detail["env"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {name: summarize(vals, bounds[name]) for name, vals in values.items()}
        report["workloads"][workload] = {"seeds": [seeds[0], seeds[-1]], "metrics": summary,
                                         "runs": details}
        for name, s in summary.items():
            print("%-15s %-13s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  bound %.2f%s"
                  % (workload, name, s["median"], s["q1"], s["q3"], s["spread"], s["bound"],
                     "" if s["steady"] else "  wide"), flush=True)
        for name, s in summary.items() if workload in before else ():
            old = before[workload]["metrics"][name]["median"]
            s["worse_than_before"] = (s["median"] - old) / old * (1 if lower[name] else -1)
            print("%-15s %-13s median %12.5g  before %12.5g  worse by %6.3f  bound %.2f%s"
                  % (workload, name, s["median"], old, s["worse_than_before"], s["bound"],
                     "  REGRESSED" if s["worse_than_before"] > s["bound"] else ""), flush=True)
        if workload in before:
            counts = {d["seed"]: (d["attempted"], d["failed"]) for d in before[workload]["runs"]}
            differ = [d["seed"] for d in details if d["seed"] in counts
                      and counts[d["seed"]] != (d["attempted"], d["failed"])]
            print("%-15s attempted and failed as before on every shared seed: %s"
                  % (workload, "yes" if not differ else "NO, seeds %s" % differ), flush=True)
        wrong = [d["seed"] for d in details if not d["correct"]]
        print("%-15s correct on every seed: %s" % (workload, "yes" if not wrong else wrong),
              flush=True)
        if args.out:
            baseline[key] = report
            args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
