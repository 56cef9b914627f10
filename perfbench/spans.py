"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` with a wrapper
that records a span ``[id, parent id, name, start, end]`` in memory.  A
method is replaced on its class; a module function is replaced under every
name a ``darlington`` module bound it to, including values of module-level
dicts (``cli`` binds the ``check_*`` functions into a table at import).
Counters are read from the arguments and return values at the same
boundary.  Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter
from time import perf_counter

CHECKS = ("checks.check_stable", "checks.check_nevanlinna", "checks.check_cayley_inner",
          "checks.check_positive_real")


def _term_points(tracer, args, out, exc):
    poly, points = args[0], args[1]
    tracer.counts["poly.evaluate_many.term_points"] += len(poly.terms) * len(points)
    if tracer.active["checks.check_stable"]:
        tracer.counts["checks.check_stable.evals"] += 1


def _pole_dropped(tracer, args, out, exc):
    if out is not None:
        tracer.counts["rational.eval_many.pole_dropped"] += int((~out[1]).sum())


def _matrices(tracer, args, out, exc):
    tracer.counts["linalg.hermitian_min_eig_many.matrices"] += len(args[0])


def _split_failed(tracer, args, out, exc):
    if type(exc).__name__ == "SplitFailed":
        tracer.counts["realization.realize_1d.split_failed"] += 1


def _members(tracer, args, out, exc):
    if out is not None:
        tracer.counts["checks.members_checked"] += out.members_checked
        tracer.counts["checks.members_falsified"] += out.members_falsified


def _samples(tracer, args, out, exc):
    # count each report once: only checks that no other check called
    if out is not None and not any(tracer.active[name] for name in CHECKS):
        tracer.counts["checks.samples_used"] += out.samples_used


def _bytes(tracer, args, out, exc):
    if out is not None:
        tracer.counts["fileio.dumps_deterministic.bytes"] += len(out)


# (metric prefix, module, attribute, counter hook)
LAYERS = [
    ("poly.evaluate_many", "poly", "MatrixPoly.evaluate_many", _term_points),
    ("poly.mul", "poly", "MatrixPoly.__mul__", None),
    ("poly.differentiate", "poly", "MatrixPoly.differentiate", None),
    ("rational.eval_many", "rational", "RationalMatrixFunction.eval_many", _pole_dropped),
    ("rational.identity_equal", "rational", "identity_equal", None),
    ("rational.coprime_probe", "rational", "coprime_probe", None),
    ("rational.normalize", "rational", "RationalMatrixFunction.normalize", None),
    ("lift.lift", "lift", "lift", None),
    ("lift.decompose", "lift", "decompose", None),
    ("lift.restrict_at_i", "lift", "restrict_at_i", None),
    ("checks.check_stable", "checks", "check_stable", _samples),
    ("checks.lemma11_probe", "checks", "lemma11_probe", _members),
    ("checks.check_nevanlinna", "checks", "check_nevanlinna", _samples),
    ("checks.check_cayley_inner", "checks", "check_cayley_inner", _samples),
    ("checks.check_positive_real", "checks", "check_positive_real", _samples),
    ("linalg.hermitian_min_eig_many", "linalg", "hermitian_min_eig_many", _matrices),
    ("realization.realize_1d", "realization", "realize_1d", _split_failed),
    ("fileio.load_function", "fileio", "load_function", None),
    ("fileio.dumps_deterministic", "fileio", "dumps_deterministic", _bytes),
]

# counters the hooks above fill in, reported as 0 when nothing touched them
COUNTERS = (
    "poly.evaluate_many.term_points",
    "checks.check_stable.evals",
    "rational.eval_many.pole_dropped",
    "linalg.hermitian_min_eig_many.matrices",
    "realization.realize_1d.split_failed",
    "checks.members_checked",
    "checks.members_falsified",
    "checks.samples_used",
    "fileio.dumps_deterministic.bytes",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        """Calls the harness makes (generating inputs, judging) are not recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [len(self.spans), self.stack[-1] if self.stack else -1, name, 0.0, 0.0]
            self.spans.append(rec)
            self.stack.append(rec[0])
            self.active[name] += 1
            out = exc = None
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as err:  # noted for the counters, then re-raised
                exc = err
                raise
            finally:
                rec[4] = perf_counter()
                self.stack.pop()
                self.active[name] -= 1
                if hook is not None:
                    hook(self, args, out, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "darlington" or n.startswith("darlington."))]
        for name, modname, attr, hook in LAYERS:
            module = sys.modules["darlington." + modname]
            owner, _, fname = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, fname, self._wrap(name, cls.__dict__[fname], hook))
                continue
            orig = getattr(module, fname)
            wrapped = self._wrap(name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapped

    def layer_metrics(self):
        """calls, self time and counters per layer, named as in BENCHMARK.json."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), Counter()
        for (sid, _, name, t0, t1), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (t1 - t0) - inner
        out = {name: self.counts[name] for name in COUNTERS}
        for name, _, _, _ in LAYERS:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        points = out["poly.evaluate_many.term_points"]
        out["poly.evaluate_many.ns_per_term_point"] = (
            1e9 * self_s["poly.evaluate_many"] / points if points else 0.0)
        stable_calls = calls["checks.check_stable"]
        out["checks.check_stable.evals_per_call"] = (
            out["checks.check_stable.evals"] / stable_calls if stable_calls else 0.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
