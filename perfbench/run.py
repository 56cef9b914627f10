#!/usr/bin/env python3
"""The darlington benchmark: one command, four labelled workloads.

    python3 perfbench/run.py --workload stability-hunt --seed 1 --seconds 20 --trace 0

Workloads (inputs come from --seed only; labels and gates in workloads.py):

  stability-hunt  lemma11_probe, pencil_probe and lemma12_probe over the 20
                  labelled pairs of tests/corpus.py plus planted pairs
                  (d 1-3, degree 1-4).  Stresses the zero-hunt descent:
                  many evaluate_many calls over few points.
  lift-verify     the verify pipeline (lift, restrict_at_i + identity_equal,
                  is_structured, check_nevanlinna, check_cayley_inner) over
                  herglotz_cases() and seeded matrix Herglotz functions, a
                  quarter of them negated.  Few evaluate_many calls over many
                  points, polynomial products, the batched eigen-solve; never
                  the descent.
  realize-ladder  coprime_probe, realize_1d, the closure and
                  check_positive_real(block()) over lossy RLC ladders, ten
                  per order 1-12.  The only user of the realization.
  cli             one fresh interpreter per invocation, one at a time: every
                  subcommand plus bad arguments, each labelled with its
                  documented exit code.  The only user of fileio, and the
                  only workload that pays interpreter and numpy start-up.

Each workload runs whole passes over its items, one item at a time in a
closed loop, until the items have taken at least --seconds of wall time; a
run ends at a pass boundary, so the mix of items does not depend on speed.
Each item is judged against its label right after it ends, outside its
timing.  The result's attempted and failed count distinct items of one pass,
not invocations: an item is failed if it failed in any pass, so the counts
depend on the seed only, not on how many passes the time allowed.

--trace 0 reports the end-to-end metrics.  Their times are scaled to a
reference machine speed measured by a kernel in a child process (see
Speed); the wall-clock values are in the detail line.  --trace 1
spends half the time untraced and half traced, reports the per-layer
metrics (named <module>.<function>.<stat>) and writes the spans, with
parent ids, to .perfbench/trace-<workload>-<seed>.jsonl.  The last stdout line is the
result; the line before it carries the label counts, the failure and
wrong-verdict ratios, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability-hunt", "lift-verify", "realize-ladder", "cli")
SETUP_REPEATS = 9       # setup_s is the median of this many fresh set-ups
START_REPEATS = 5       # cli.interpreter_s / cli.import_s: median of this many starts
TAIL_BEYOND = 10        # the tail percentile keeps at least this many samples above it
KERNEL_REF_S = 0.009    # about the speed kernel's fastest time on a 2-core Xeon VM
KERNEL_EVERY_S = 0.25   # item time between two runs of the speed kernel
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """One BLAS thread for this process and its children (at most nproc).

    Every matrix here is at most 4 x 4, where a second BLAS thread only adds
    synchronisation: on a 2-core Xeon VM it made realize-ladder 12-15% slower
    and noisier.  Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def pin_to_one_cpu():
    """Runs this process, the speed kernel and every other child on one CPU.

    The kernel tracks the items' speed only from the same CPU: on a 2-core
    VM, four runs of stability-hunt on one seed spread by 20% at the
    reference speed with the kernel free to run on the other CPU, and by 4%
    with both pinned to one.  The benchmark runs one thing at a time, so one
    CPU is all it uses.  Returns that CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(nproc, pinned_cpu):
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "")
    except (TypeError, KeyError):
        blas = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu": cpu or platform.machine(),
        "blas": blas,
        "blas_threads": {var: int(os.environ[var]) for var in BLAS_THREAD_VARS},
    }


class Speed:
    """How fast the machine runs right now, from the speed kernel (kernel.py).

    On a shared 2-core VM the same work ran up to 2x slower from one minute
    to the next, and switched between two speeds about 1.6x apart every few
    seconds.  The kernel runs in a child process of its own, between items
    and outside their timing, so only the machine can move it, not the
    package.  A time measured between kernel samples i and i + 1 is reported
    at the reference speed: multiplied by factor(i) = KERNEL_REF_S / (the
    median of samples i - 1 to i + 2), so that one disturbed sample does not
    move it.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "kernel.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []

    def sample(self):
        """Runs the kernel once; returns the sample's index."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        return len(self.samples) - 1

    def factor(self, i):
        return KERNEL_REF_S / statistics.median(self.samples[max(i - 1, 0):i + 3])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class CliRunner:
    """Runs an argv as a fresh child process, or in this process via cli.main."""

    def __init__(self, work):
        self.errpath = work / "stderr.txt"
        self.inprocess = False
        self.peak_rss_kib = 0

    def __call__(self, argv):
        import workloads as W

        if self.inprocess:
            return W.run_main(argv)
        out = W.run_child(argv, ROOT, self.errpath)
        self.peak_rss_kib = max(self.peak_rss_kib, out[3])
        return out


def build(name, seed, work):
    """Returns (make_pass, warm-up item, cli runner or None); make_pass()
    generates the items of one pass from the seed."""
    import workloads as W

    if name == "cli":
        runner = CliRunner(work)
        make_pass, warm = W.cli(seed, work, runner)
        return make_pass, warm, runner
    maker = {"stability-hunt": W.stability_hunt, "lift-verify": W.lift_verify,
             "realize-ladder": W.realize_ladder}[name]
    make_pass, warm = maker(seed)
    return make_pass, warm, None


def setup_once(name, seed, work):
    """Fresh import, generation of the first pass and warm-up, in seconds."""
    t0 = perf_counter()
    make_pass, warm, _ = build(name, seed, work)
    make_pass()
    warm.judge(warm.run())
    return perf_counter() - t0


def setup_times(name, seed, speed):
    """Wall-clock times of SETUP_REPEATS fresh set-ups, and the same at the
    reference speed, each scaled by the kernel samples around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    wall, at_ref = [], []
    for _ in range(SETUP_REPEATS):
        k = speed.sample()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        speed.sample()
        wall.append(float(proc.stdout.strip().splitlines()[-1]))
        at_ref.append(wall[-1] * speed.factor(k))
    return wall, at_ref


def start_times(snippet):
    cmd = [sys.executable, "-c", snippet]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(START_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60)
        out.append(perf_counter() - t0)
    return statistics.median(out)


def mislabel(items):
    """Give the first item that has one a contradicting label (cli).  Else swap
    the labels of the first item and the first later item of the same kind
    with a different known answer, and run that one second.  Returns the
    names of the mislabelled items."""
    j = next((k for k, it in enumerate(items) if it.relabel is not None), None)
    if j is not None:
        items[j] = items[j].relabel()
        return [items[j].name]
    kind = items[0].name.split(":")[0]
    j = next(k for k, it in enumerate(items)
             if it.name.split(":")[0] == kind and it.label != items[0].label)
    first, other = items[0], items.pop(j)
    items[0] = dataclasses.replace(first, judge=other.judge)
    items.insert(1, dataclasses.replace(other, judge=first.judge))
    return [first.name, other.name]


def shaped(make_pass, args, mislabelled):
    def make():
        items = list(make_pass())
        if args.mislabel:
            mislabelled[:] = mislabel(items)
        if args.items:
            del items[args.items:]
        return items
    return make


class Run:
    """Closed loop over whole passes until the items have used `seconds` of
    wall time.  Each pass regenerates the same inputs as fresh objects (cli
    repeats the same invocations), so item j is the same work in every pass,
    and whole passes keep the mix the same however fast the program is."""

    def __init__(self, make_pass, seconds, first_pass=None, untraced=contextlib.nullcontext,
                 speed=None):
        """untraced: context for the harness's own work (generating a pass,
        judging an item), so a traced run records only the items' calls.
        speed: a Speed, sampled every KERNEL_EVERY_S of item time; without
        one, times are not scaled."""
        import workloads as W

        self.untraced = untraced
        self.status, self.bad, self.runs = Counter(), Counter(), Counter()
        self.per_item, self.names, self.item_status = [], [], []
        self.attempted = 0
        self.speed = speed
        busy = sampled = 0.0
        k = speed.sample() if speed else 0
        with untraced():
            items = first_pass or make_pass()
        while True:
            for j, item in enumerate(items):
                if speed is not None and busy >= sampled + KERNEL_EVERY_S:
                    k, sampled = speed.sample(), busy
                t0 = perf_counter()
                try:
                    out = item.run()
                except Exception as exc:  # the item failed; the run goes on
                    out = exc
                t = perf_counter() - t0
                busy += t
                if j == len(self.per_item):
                    self.per_item.append([])
                    self.names.append(item.name)
                    self.item_status.append(W.OK)
                self.per_item[j].append((t, k))
                self.attempted += 1
                self.runs[item.name] += 1
                self.record(W, j, item, out)
            if busy >= seconds:
                break
            with untraced():
                items = make_pass()
        if speed is not None:
            speed.sample()

    def record(self, W, j, item, out):
        if isinstance(out, Exception):
            status = W.FAILED
        else:
            try:
                with self.untraced():
                    status = item.judge(out)
            except Exception:  # output the gate cannot even read is wrong
                status = W.WRONG
        self.status[status] += 1
        self.item_status[j] = W.worst(self.item_status[j], status)
        if status != W.OK:
            self.bad["%s %s" % (status, item.name)] += 1

    def repeat_singles(self, items):
        """Invoke once more every item that ran only once, outside the timing,
        so each one's stdout is compared across two identical invocations."""
        import workloads as W

        for j, item in enumerate(items):
            if self.runs[item.name] == 1:
                self.attempted += 1
                self.runs[item.name] += 1
                self.record(W, j, item, item.run())

    def item_times(self, at_ref=True):
        """One time per item: the median over its passes, at the reference
        speed if the run has a Speed and at_ref is set."""
        scale = self.speed.factor if at_ref and self.speed else lambda k: 1.0
        return [statistics.median(t * scale(k) for t, k in ts) for ts in self.per_item]

    def items_per_s(self, at_ref=True):
        times = self.item_times(at_ref)
        return len(times) / sum(times)


def order_stat(times, k):
    """Harrell-Davis estimate of the (k+1)-th smallest of the times: every
    sorted time weighted by the Beta(k + 1, n - k) mass over its share of
    [0, 1].  A plain order statistic jumps across the gaps between kinds of
    items (stability-hunt has items of about 12 and 15 ms on either side of
    its median); over six seeds on a 2-core Xeon VM the estimate spread 0.023
    at the median where the plain median spread 0.072, and 0.038 at the tail
    where the plain order statistic spread 0.13."""
    import numpy as np

    ts = np.sort(np.asarray(times, dtype=float))
    n, per = len(ts), 200
    x = (np.arange(n * per) + 0.5) / (n * per)
    logpdf = k * np.log(x) + (n - k - 1) * np.log1p(-x)
    w = np.exp(logpdf - logpdf.max()).reshape(n, per).sum(axis=1)
    return float(w @ ts / w.sum())


def median(times):
    n = len(times)
    return order_stat(times, (n - 1) / 2)


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(times)
    k = max(n - TAIL_BEYOND - 1, 0)
    return order_stat(times, k), 100.0 * (k + 1) / n, n - k - 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mislabel", action="store_true",
                    help="give one item a contradicting label; the gate must then report "
                         "a wrong verdict")
    ap.add_argument("--items", type=int, default=0,
                    help="cut each pass to its first N items (for the smoke check)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    if not (ROOT / "src" / "darlington" / "__init__.py").is_file():
        print("perfbench: no package sources at %s" % (ROOT / "src" / "darlington"),
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ.pop("DARLINGTON_SEED", None)
    work = ROOT / ".perfbench" / ("work-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    speed = None
    try:
        if args.setup_probe:
            print(setup_once(args.workload, args.seed, work))
            return 0
        env = environment(nproc, pin_to_one_cpu())
        speed = None if args.trace else Speed()
        return measure(args, env, work, speed)
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, env, work, speed):
    import spans as T
    import workloads as W

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup, setup_ref = ([], []) if speed is None else setup_times(args.workload, args.seed, speed)
    make_pass, warm, runner = build(args.workload, args.seed, work)
    mislabelled = []
    make_pass = shaped(make_pass, args, mislabelled)
    first = make_pass()
    warm.run()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "items_per_pass": len(first)}
    if args.mislabel:
        detail["mislabelled"] = mislabelled

    if args.trace:
        if runner is not None:
            runner.inprocess = True
        plain = Run(make_pass, args.seconds / 2, first)
        tracer = T.Tracer()
        tracer.install()
        traced = Run(make_pass, args.seconds / 2, untraced=tracer.pause)
        runs = (plain, traced)
        layer = tracer.layer_metrics()
        layer["bench.trace_overhead_items_per_s"] = traced.items_per_s() - plain.items_per_s()
        interp = start_times("pass")
        layer["cli.interpreter_s"] = interp
        layer["cli.import_s"] = start_times("import darlington") - interp
        layer["cli.main_s"] = statistics.median(plain.item_times()) if runner is not None else 0.0
        path = ROOT / ".perfbench" / ("trace-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        detail["spans"] = {"file": str(path.relative_to(ROOT)), "count": len(tracer.spans)}
    else:
        run = Run(make_pass, args.seconds, first, speed=speed)
        if runner is not None:
            run.repeat_singles(first)
        runs = (run,)

    # One status per distinct item (the worst over its passes), so that
    # attempted and failed depend on the seed, not on the number of passes.
    status = Counter(W.worst(*(r.item_status[j] for r in runs))
                     for j in range(len(runs[0].item_status)))
    attempted = sum(status.values())
    detail.update(
        counts={s: status[s] for s in (W.OK, W.MISS, W.WRONG, W.FAILED)},
        invocations=sum(r.attempted for r in runs),
        failed_ratio=status[W.FAILED] / attempted,
        wrong_verdict_ratio=status[W.WRONG] / attempted,
        miss_ratio=status[W.MISS] / attempted,
        not_ok=dict(sorted(sum((r.bad for r in runs), Counter()).items())),
        env=env,
    )
    if args.trace:
        layer["bench.falsifier_miss_ratio"] = status[W.MISS] / attempted
        metrics = {m["name"]: metric(layer[m["name"]], m["unit"]) for m in bench["per_layer"]}
    else:
        times = run.item_times()
        value, pct, beyond = tail(times)
        # cli: the peak of its children; otherwise this process
        rss_kib = (runner.peak_rss_kib if runner is not None
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = {
            "setup_s": statistics.median(setup_ref),
            "items_per_s": run.items_per_s(),
            "item_p50_ms": 1e3 * median(times),
            "item_tail_ms": 1e3 * value,
            "peak_rss_mb": rss_kib / 1024.0,
        }
        wall = run.item_times(at_ref=False)
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in bench["end_to_end"]}
        detail.update(setup_samples_s=setup,
                      measured={"setup_s": statistics.median(setup),
                                "items_per_s": run.items_per_s(at_ref=False),
                                "item_p50_ms": 1e3 * median(wall),
                                "item_tail_ms": 1e3 * tail(wall)[0]},
                      kernel_s=speed.samples,
                      passes=len(run.per_item[0]),
                      item_ms=[[n, 1e3 * t] for n, t in zip(run.names, times)],
                      slowest_ms=[[n, 1e3 * t] for t, n in
                                  sorted(zip(times, run.names), reverse=True)[:TAIL_BEYOND + 1]],
                      item_tail={"percentile": pct, "samples_beyond": beyond,
                                 "samples": len(times)})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": status[W.WRONG] == 0, "attempted": attempted,
                      "failed": status[W.FAILED], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
