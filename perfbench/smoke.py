#!/usr/bin/env python3
"""Smoke check for the benchmark at a tiny size.

    python3 perfbench/smoke.py

For every workload it makes one untraced and one traced run over the first
few items of a pass, and asserts that every metric BENCHMARK.json names is
present with its unit and that the verdicts are correct.  A run with one
item deliberately mislabelled must report a wrong verdict on that item and
on no other, so the gate cannot pass vacuously: in-process workloads swap
the labels of two items, and cli relabels one invocation with a verdict
code that contradicts its documented one.  Last, the benchmark copied without the package
must exit non-zero without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ITEMS = 4


def run(script, workload, trace, *extra):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--items", str(ITEMS), *extra]
    return subprocess.run(cmd, cwd=script.parent.parent, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError("exit %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    detail, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(last)


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = HERE / "run.py"
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail, res = result(run(script, name, trace))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s trace=%d: metrics %s, expected %s" % (name, trace, got, want))
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  "%s trace=%d: a metric value is not a number" % (name, trace))
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (name, sorted(res)))
            check(res["correct"] and res["attempted"] >= 1,
                  "%s trace=%d: %s" % (name, trace, detail["not_ok"]))
        detail, res = result(run(script, name, 0, "--mislabel"))
        wrong = {k.split(" ", 1)[1] for k in detail["not_ok"] if k.startswith("wrong ")}
        check(not res["correct"] and detail["wrong_verdict_ratio"] > 0,
              "%s: a contradicting label went unnoticed" % name)
        check(wrong <= set(detail["mislabelled"]),
              "%s: wrong verdicts %s on items that were not mislabelled %s"
              % (name, sorted(wrong), detail["mislabelled"]))
        print("smoke %-15s ok" % name, flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare / HERE.name / "run.py", bench["workloads"][0]["name"], 0)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the package the benchmark must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke without the package: exits %d, no result" % proc.returncode)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print("smoke FAILED: %s" % exc, file=sys.stderr)
        sys.exit(1)
