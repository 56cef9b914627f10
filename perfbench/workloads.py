"""Seeded, labelled inputs for the four benchmark workloads, and their gates.

A workload makes passes, each a list of items, from its seed.  An item
carries its known answer next to it: ``run`` produces the program's verdict (the timed part) and ``judge``
compares that verdict with the label afterwards, returning one of

- ``OK``: the verdict agrees with the label and every witness re-evaluates.
- ``WRONG``: the verdict contradicts the label, a "fail" witness does not
  re-evaluate, an exact identity does not hold, or CLI stdout differs
  between two identical invocations.
- ``MISS``: a sampling falsifier found nothing on an input known to be
  falsifiable.  "inconclusive" (and "pass" for the sampled checks) is an
  answer the package documents for that case, so a miss is counted on its
  own; it is never folded into ``OK``.
- ``FAILED``: the item raised, or (CLI) ended in a traceback or in an exit
  code other than the documented one that is not a contradicting verdict
  (see ``judge_cli``).  ``run`` raising is turned into this by the harness.

The package is looked up through module attributes at call time, so the
traced run's wrappers see every call.  Inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OK, MISS, WRONG, FAILED = "ok", "miss", "wrong", "failed"

ROOT_RTOL = 1e-10          # stability witness: |p(w)| <= 1e-10 * max|coeff|
SLACK = 1e-8               # the package's default psd / reality slack
LIFT_EVAL_RTOL = 1e-8      # independent g(z, i) = f(z) check at sample points
LADDER_EVAL_RTOL = 1e-6    # closure against the ladder's own continued fraction
CLOSURE_RTOL = 1e-7        # realize_1d's documented identity tolerance
LEMMA11_MEMBERS = 5        # rotated members per lemma11_probe: with the default 50 one
                           # stability-hunt pass took 25-30 s on a 2-core VM, so a run
                           # timed each item once; with 5 a run makes about five passes


def _mod(name):
    return importlib.import_module("darlington." + name)


P, R, L, C, RZ, F = (_mod(n) for n in ("poly", "rational", "lift", "checks", "realization",
                                        "fileio"))


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], str]
    label: object = None    # the known answer, in a form two items can be compared by
    relabel: Callable[[], "Item"] = None    # the same item judged against a contradicting
                                            # label, for the smoke check


def worst(*statuses):
    for s in (WRONG, FAILED, MISS):
        if s in statuses:
            return s
    return OK


def _point(pairs):
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def sp(d, coeffs):
    return P.MatrixPoly.from_scalar_terms(d, coeffs)


def linear(d, a, const):
    terms = {(0,) * d: const}
    for k in range(d):
        terms[tuple(int(j == k) for j in range(d))] = a[k]
    return sp(d, terms)


# ----------------------------------------------------------------------
# witness re-evaluation


def zero_witness_ok(poly, witness):
    """The reported point lies in the open upper poly-half-plane and is a zero."""
    z = _point(witness["point"])
    val = abs(poly.evaluate(z)[0, 0])
    return bool(np.all(z.imag > 0)) and val <= ROOT_RTOL * poly.max_coeff_magnitude()


def psd_witness_ok(f, witness, part):
    """The reported point really has a negative imaginary (or real) part."""
    val = f.eval(_point(witness["point"]))
    herm = (val - val.conj().T) / 2j if part == "imag" else (val + val.conj().T) / 2
    return bool(np.linalg.eigvalsh(herm)[0] < 0.0)


def cayley_witness_ok(g, witness):
    if witness.get("part") == "boundary-reality":
        z = _point(witness["point"])
        val = g.eval(z)
        im = np.abs(np.linalg.eigvalsh((val - val.conj().T) / 2j)).max()
        return bool(np.all(z.imag == 0)) and im > SLACK * (1 + np.linalg.norm(val, 2))
    return psd_witness_ok(g, witness, "imag")


def judge_falsifier(verdict, falsifiable, witness_ok, negatives=("inconclusive",)):
    """falsifiable is True, False, or None (no label: only witnesses are checked)."""
    if verdict == "fail":
        return OK if falsifiable is not False and witness_ok() else WRONG
    if verdict not in negatives:
        return WRONG
    return MISS if falsifiable else OK


# ----------------------------------------------------------------------
# stability-hunt: lemma 11 / pencil / lemma 12 probes over labelled pairs


@dataclass(frozen=True)
class Pair:
    name: str
    p: object
    q: object
    unstable: bool          # p + iq has an upper zero, so combined and pencil are falsifiable
    members: bool           # some rotation cos(t) p + sin(t) q is falsifiable
    ratio: object           # Im(p/q) of mixed sign: True / False / None (not labelled)
    ratio_defined: bool


def load_corpus():
    """tests/corpus.py: the labelled pairs and herglotz_cases()."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    try:
        return importlib.import_module("corpus")
    finally:
        sys.path.pop(0)


def corpus_pairs():
    """The 20 labelled pairs, as fresh objects."""
    return [Pair(c.name, c.p, c.q, not c.stable_pair, not c.stable_pair,
                 not c.stable_pair if c.coprime else None, c.ratio_defined)
            for c in load_corpus().pair_cases()]


def planted_pair(rng, d, deg, stable):
    """Real halves of a product of Σ a_k z_k + b + i c with a_k, c > 0.

    The unstable variant swaps the first factor for z_1 - w with Im w > 0.
    Its conjugate is then unstable too once deg >= 2 (the other factors'
    conjugates have upper zeros), so rotated members and the ratio are
    falsifiable exactly when deg >= 2.

    a_k, c and Im w are drawn from [0.8, 1.25], b and Re w from [-1, 1], so
    that the seed changes the inputs but not much what a pass costs: with
    [0.5, 2] and [-2, 2] the median item time moved by 9% (quartile distance
    over median) across ten seeds on a 2-core VM, with these by 2% (both
    measured with 10 members per lemma11_probe).
    """
    prod = P.MatrixPoly.constant(d, 1.0)
    for j in range(deg):
        if j == 0 and not stable:
            w = complex(rng.uniform(-1, 1), rng.uniform(0.8, 1.25))
            fac = linear(d, [1.0] + [0.0] * (d - 1), -w)
        else:
            fac = linear(d, rng.uniform(0.8, 1.25, d),
                         complex(rng.uniform(-1, 1), rng.uniform(0.8, 1.25)))
        prod = prod * fac
    p = P.MatrixPoly(d, 1, {e: c.real for e, c in prod.terms.items()})
    q = P.MatrixPoly(d, 1, {e: c.imag for e, c in prod.terms.items()})
    mixed = not stable and deg >= 2
    kind = "stable" if stable else "unstable"
    return Pair("planted-d%d-deg%d-%s" % (d, deg, kind), p, q, not stable, mixed, mixed, True)


def _pencil_poly(p, q):
    d = p.d
    return p.append_variable() + P.MatrixPoly.variable(d + 1, d) * q.append_variable()


def _judge_lemma11(pair, probe):
    combined = pair.p + pair.q.scaled(1j)
    pencil = _pencil_poly(pair.p, pair.q)
    s1 = judge_falsifier(probe.combined.verdict, pair.unstable,
                         lambda: zero_witness_ok(combined, probe.combined.witness))
    s2 = judge_falsifier(probe.pencil.verdict, pair.unstable,
                         lambda: zero_witness_ok(pencil, probe.pencil.witness))
    if probe.members_falsified:
        w = probe.member_witness
        member = pair.p.scaled(float(np.cos(w["theta"]))) + pair.q.scaled(float(np.sin(w["theta"])))
        s3 = OK if pair.members and zero_witness_ok(member, w) else WRONG
    else:
        s3 = MISS if pair.members else OK
    return worst(s1, s2, s3)


def _judge_lemma12(pair, rep):
    def witness_ok():
        f = R.RationalMatrixFunction(pair.p, pair.q)
        lo = f.eval(_point(rep.witness["point_min"]))[0, 0].imag
        hi = f.eval(_point(rep.witness["point_max"]))[0, 0].imag
        return lo < -SLACK and hi > SLACK
    return judge_falsifier(rep.verdict, pair.ratio, witness_ok, ("pass", "inconclusive"))


def _pair_items(pair):
    items = [
        Item("lemma11:" + pair.name,
             lambda: C.lemma11_probe(pair.p, pair.q, members=LEMMA11_MEMBERS),
             lambda out: _judge_lemma11(pair, out), pair.unstable),
        Item("pencil:" + pair.name, lambda: C.pencil_probe(pair.p, pair.q),
             lambda out: judge_falsifier(out.verdict, pair.unstable, lambda: zero_witness_ok(
                 _pencil_poly(pair.p, pair.q), out.witness)), pair.unstable),
    ]
    if pair.ratio_defined:
        items.append(Item("lemma12:" + pair.name, lambda: C.lemma12_probe(pair.p, pair.q),
                          lambda out: _judge_lemma12(pair, out), pair.unstable))
    return items


def planted_pairs(rng):
    """One planted pair per (d, degree) class, unstable on a fixed
    checkerboard of the classes."""
    return [planted_pair(rng, d, deg, (d + deg) % 2 == 1) for d in (1, 2, 3) for deg in (1, 2, 3, 4)]


def stability_hunt(seed):
    def make_pass():
        pairs = corpus_pairs() + planted_pairs(np.random.default_rng([seed, 1]))
        order = np.random.default_rng([seed, 2]).permutation(len(pairs))
        return [it for j in order for it in _pair_items(pairs[j])]

    warm = _pair_items(corpus_pairs()[0])[-1]
    return make_pass, warm


# ----------------------------------------------------------------------
# lift-verify: the verify pipeline over matrix Herglotz functions


def _psd(rng, m):
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return r @ r.conj().T / m + 0.1 * np.eye(m)


def _herm(rng, m):
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (r + r.conj().T) / 2.0


def herglotz_function(rng, d, m, poles):
    """A0 + Σ B_k z_k - Σ_j C_j / ℓ_j(z), A0 Hermitian, B_k and C_j PSD,
    ℓ_j = Σ a z + b + i c with a, c > 0: Herglotz, over the common
    denominator Π ℓ_j."""
    ells = [linear(d, rng.uniform(0.5, 2.0, d), complex(rng.uniform(-2, 2), rng.uniform(0.5, 2)))
            for _ in range(poles)]
    affine = {(0,) * d: _herm(rng, m)}
    for k in range(d):
        affine[tuple(int(j == k) for j in range(d))] = _psd(rng, m)
    den = P.MatrixPoly.constant(d, 1.0)
    for ell in ells:
        den = den * ell
    num = P.MatrixPoly(d, m, affine) * den
    for j in range(poles):
        rest = P.MatrixPoly.constant(d, _psd(rng, m))
        for i, ell in enumerate(ells):
            if i != j:
                rest = rest * ell
        num = num - rest
    return R.RationalMatrixFunction(num, den)


def _verify(f):
    lifted = L.lift(f)
    back = L.restrict_at_i(lifted.lifted)
    identity = R.identity_equal(back, lifted.input)
    structured = lifted.pieces.is_structured()
    rep_in = C.check_nevanlinna(f)
    rep_lift = C.check_cayley_inner(lifted.lifted)
    return lifted, identity, structured, rep_in, rep_lift


def _judge_verify(f, negated, out, probe_pts):
    lifted, identity, structured, rep_in, rep_lift = out
    g = lifted.lifted
    gz, ok = g.eval_many(np.hstack([probe_pts, np.full((len(probe_pts), 1), 1j)]))
    fz, f_ok = f.eval_many(probe_pts)
    ok &= f_ok
    close = np.all(np.abs(gz - fz)[ok] <= LIFT_EVAL_RTOL * (1 + np.abs(fz[ok])))
    exact = OK if identity and structured and close else WRONG
    s_in = judge_falsifier(rep_in.verdict, negated,
                           lambda: psd_witness_ok(f, rep_in.witness, "imag"), ("pass",))
    s_lift = judge_falsifier(rep_lift.verdict, negated,
                             lambda: cayley_witness_ok(g, rep_lift.witness), ("pass",))
    return worst(exact, s_in, s_lift)


def lift_verify(seed):
    corpus = load_corpus()

    def make_pass():
        """herglotz_cases() plus four generated functions per (m, d), one of
        them negated, so a quarter of the generated inputs must fail."""
        rng = np.random.default_rng([seed, 3])
        cases = [(c.name, c.f, False) for c in corpus.herglotz_cases()]
        for m in (1, 2, 4):
            for d in (1, 2, 3):
                for rep in range(4):
                    f = herglotz_function(rng, d, m, poles=2 + rep % 2)
                    if rep == 0:
                        f = R.RationalMatrixFunction(f.num.scaled(-1.0), f.den)
                    cases.append(("herglotz-m%d-d%d-%s" % (m, d, "neg" if rep == 0 else "pos"),
                                  f, rep == 0))
        items = []
        for j in rng.permutation(len(cases)):
            name, f, negated = cases[j]
            pts = rng.uniform(-3, 3, (4, f.d)) + 1j * rng.uniform(0.1, 3, (4, f.d))
            items.append(Item("verify:" + name, lambda f=f: _verify(f),
                              lambda out, f=f, neg=negated, pts=pts: _judge_verify(f, neg, out, pts),
                              negated))
        return items

    z1 = [c.f for c in corpus.herglotz_cases() if c.name == "z1"][0]
    return make_pass, Item("verify:z1", lambda: _verify(z1), lambda out: OK)


# ----------------------------------------------------------------------
# realize-ladder: lossy RLC ladders, every one genuinely positive-real


@dataclass(frozen=True)
class Ladder:
    """Series branches R + sL alternating with shunt branches G + sC, closed
    on a load resistor; order = number of reactive elements."""

    elements: tuple   # ((resistive, reactive), ...) from the input side
    load: float

    def impedance(self, s):
        z = np.full(np.shape(s), self.load, dtype=np.complex128)
        for k in reversed(range(len(self.elements))):
            res, rea = self.elements[k]
            z = z + (res + s * rea) if k % 2 == 0 else z / (1 + (res + s * rea) * z)
        return z

    def function(self):
        num, den = np.array([self.load], dtype=float), np.array([1.0])
        for k in reversed(range(len(self.elements))):
            branch = np.array(self.elements[k], dtype=float)
            if k % 2 == 0:
                num = np.polynomial.polynomial.polyadd(num, np.polynomial.polynomial.polymul(branch, den))
            else:
                den = np.polynomial.polynomial.polyadd(den, np.polynomial.polynomial.polymul(branch, num))
        poly = lambda u: sp(1, {(k,): float(c) for k, c in enumerate(u) if c != 0})
        return R.RationalMatrixFunction(poly(num), poly(den))


def random_ladder(rng, order):
    vals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (order, 2)))
    vals[:, 0] *= 0.2   # lossy but reactance-dominated branches
    return Ladder(tuple(map(tuple, vals.tolist())), float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))))


def _realize(f):
    probe = R.coprime_probe(f)
    real = RZ.realize_1d(f)
    closure = real.closure()
    block = real.block()
    return probe, real, closure, block, C.check_positive_real(block)


def _judge_ladder(ladder, out, pts):
    probe, real, closure, block, rep = out
    want = ladder.impedance(pts)
    got, ok = closure.eval_many(pts[:, None])
    close = ok.all() and np.all(np.abs(got[:, 0, 0] - want) <= LADDER_EVAL_RTOL * (1 + np.abs(want)))
    exact = OK if close and R.identity_equal(closure, real.source, CLOSURE_RTOL) else WRONG
    if rep.verdict == "pass":
        lossless = OK
    else:
        # the block is not positive-real and the package says so, with a
        # witness that holds: the realization failed, the check did not
        lossless = FAILED if psd_witness_ok(block, rep.witness, "real") else WRONG
    coprime = {"coprime-probable": OK, "inconclusive": MISS}.get(probe.verdict, WRONG)
    return worst(exact, lossless, coprime)


def realize_ladder(seed, per_order=10):
    pts = np.array([0.3 + 0.7j, 1.1 - 2.0j, 2.5 + 0.1j, 0.05 + 5.0j])

    def make_pass():
        rng = np.random.default_rng([seed, 5])
        ladders = [random_ladder(rng, order) for _ in range(per_order) for order in range(1, 13)]
        return [Item("realize:order%d" % len(lad.elements), lambda f=lad.function(): _realize(f),
                     lambda out, lad=lad: _judge_ladder(lad, out, pts), j)
                for j, lad in enumerate(ladders)]

    warm_f = random_ladder(np.random.default_rng(0), 1).function()
    return make_pass, Item("realize:warm", lambda: _realize(warm_f), lambda out: OK)


# ----------------------------------------------------------------------
# cli: one fresh interpreter per invocation

ENTRY = "import sys; from darlington.cli import main; sys.exit(main(sys.argv[1:]))"
VERDICT_CODES = (0, 1, 4, 5, 6)   # pass, fail, identity failed, class failed, inconclusive
EXIT_IDENTITY, EXIT_CLASS = 4, 5


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "DARLINGTON_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv, root, errpath):
    """One CLI invocation in a fresh interpreter, as the console script runs it.

    Returns (exit code, stdout, stderr, peak RSS in KiB).  The child is
    reaped with wait4 so its own peak RSS can be read; stderr goes to a file
    so a long traceback cannot block the stdout pipe.
    """
    with open(errpath, "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-c", ENTRY] + argv, cwd=root,
                                env=child_env(root), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), usage.ru_maxrss


def run_main(argv):
    """The same invocation in this process: cli.main(argv), output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _mod("cli").main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the interpreter would print it and exit 1
            traceback.print_exc()
            code = 1
    return 0 if code is None else code, out.getvalue().encode(), err.getvalue().encode(), 0


@dataclass
class CliCase:
    argv: list
    codes: tuple              # documented exit codes for this invocation
    miss_codes: tuple = ()    # documented "found nothing" codes on a falsifiable input
    reference: bytes = None   # stdout the library path produces for the same request
    witness: Callable = None  # re-evaluates the "fail" witness in a report


def judge_cli(case, out, first):
    """out: (code, stdout, stderr, rss); first: stdout of the case's first invocation.

    An undocumented exit code is WRONG when the case is labelled with a
    verdict and the code is a verdict that contradicts it: exit 4 (an exact
    identity failed), or any verdict code that comes with its report on
    stdout.  It is FAILED otherwise: an error exit (2, 3, 7), exit 5 with no
    report (the realization raised SplitFailed, as in realize-ladder), or any
    outcome of a case labelled with an error code, i.e. a bad argument that
    the CLI did not reject.  A traceback is always FAILED.
    """
    code, stdout, stderr = out[:3]
    if b"Traceback" in stderr:
        return FAILED
    if code not in case.codes + case.miss_codes:
        verdict_label = any(c in VERDICT_CODES for c in case.codes)
        verdict = code == EXIT_IDENTITY or (code in VERDICT_CODES and bool(stdout))
        return WRONG if verdict_label and verdict else FAILED
    if stdout != first or (case.reference is not None and stdout != case.reference):
        return WRONG
    if code in case.miss_codes:
        return MISS
    if case.witness is not None and code == 1 and not case.witness(json.loads(stdout)):
        return WRONG
    return OK


def cli_item(case, runner):
    first = []

    def judge(out):
        if not first:
            first.append(out[1])
        return judge_cli(case, out, first[0])

    relabel = None
    if all(c in VERDICT_CODES for c in case.codes):
        # a "pass" label becomes "class failed", any other verdict label "pass"
        contra = (EXIT_CLASS,) if case.codes == (0,) else (0,)
        relabel = lambda: cli_item(dataclasses.replace(case, codes=contra, miss_codes=()), runner)
    name = "cli:" + " ".join([case.argv[0], Path(case.argv[1]).stem] + case.argv[2:])
    return Item(name, lambda: runner(case.argv), judge, name, relabel)


def cli_cases(seed, workdir):
    """Documents written from corpus items, and the invocations over them."""
    corpus = load_corpus()
    rng = np.random.default_rng([seed, 6])
    named = {c.name: c.f for c in corpus.herglotz_cases()}

    def doc(name, f, frame):
        path = workdir / (name + ".json")
        F.save_function(str(path), f, frame)
        return str(path)

    h1 = list(named.values())[int(rng.integers(len(named)))]
    h_rand = herglotz_function(rng, int(rng.integers(1, 3)), 2, 2)
    neg = R.RationalMatrixFunction(h_rand.num.scaled(-1.0), h_rand.den)
    low, high = random_ladder(rng, 3).function(), random_ladder(rng, 9).function()
    stable, unstable = planted_pair(rng, 2, 2, True), planted_pair(rng, 2, 2, False)
    p_st, p_un = stable.p + stable.q.scaled(1j), unstable.p + unstable.q.scaled(1j)
    one = P.MatrixPoly.constant(2, 1.0)
    huge = R.RationalMatrixFunction(sp(1, {(0,): 1e308}), sp(1, {(1,): 1e-308}))

    f_h1 = doc("h1", h1, "nevanlinna")
    f_hr = doc("hrand", h_rand, "nevanlinna")
    f_neg = doc("neg", neg, "nevanlinna")
    f_ci = doc("cayley-inner", named["neg-inv-sum2"], "nevanlinna")
    f_nci = doc("not-cayley-inner", named["z1-plus-i"], "nevanlinna")
    f_pole = doc("pole", named["neg-inv-shifted"], "nevanlinna")
    f_lo = doc("ladder3", low, "positive-real")
    f_hi = doc("ladder9", high, "positive-real")
    f_st = doc("stable", R.RationalMatrixFunction(p_st, one), "nevanlinna")
    f_un = doc("unstable", R.RationalMatrixFunction(p_un, one), "nevanlinna")
    f_real = doc("real-stable", R.RationalMatrixFunction(stable.p, one), "nevanlinna")
    f_huge = doc("overflow", huge, "nevanlinna")
    f_bad = str(workdir / "truncated.json")
    Path(f_bad).write_text('{"schema_version": 1, "d": ')

    def lift_ref(f):
        lifted = L.lift(f).lifted
        return F.dumps_deterministic(F.function_to_dict(lifted, "nevanlinna")).encode()

    def first_witness(rep):
        return next(iter(rep["witnesses"].values()))["witness"]

    nev = ["--class", "nevanlinna"]
    return [
        CliCase(["lift", f_h1], (0,), reference=lift_ref(h1)),
        CliCase(["lift", f_hr], (0,), reference=lift_ref(h_rand)),
        CliCase(["verify", f_h1], (0,)),
        CliCase(["verify", f_hr], (0,)),
        CliCase(["verify", f_neg], (5,), miss_codes=(0,)),
        CliCase(["check", f_hr] + nev, (0,)),
        CliCase(["check", f_neg] + nev, (1,), miss_codes=(0,),
                witness=lambda rep: psd_witness_ok(neg, first_witness(rep), "imag")),
        CliCase(["check", f_ci, "--class", "cayley-inner"], (0,)),
        CliCase(["check", f_nci, "--class", "cayley-inner"], (1,), miss_codes=(0,)),
        CliCase(["check", f_lo, "--class", "positive-real"], (0,)),
        CliCase(["stable", f_st], (6,)),
        CliCase(["stable", f_un], (1,), miss_codes=(6,),
                witness=lambda rep: zero_witness_ok(p_un, first_witness(rep))),
        CliCase(["stable", f_real, "--real"], (6,)),
        CliCase(["realize1d", f_lo], (0,)),
        CliCase(["realize1d", f_hi], (0,)),
        CliCase(["eval", f_hr, "--at", ",".join(["0.5+1j"] * h_rand.d)], (0,)),
        CliCase(["eval", f_pole, "--at=-1j"], (7,)),
        CliCase(["lift", f_lo], (3,)),
        CliCase(["check", f_bad] + nev, (2,)),
        # bad arguments and inputs with a documented code (2: bad arguments,
        # 3: precondition) that the package does not map yet
        CliCase(["check", f_h1, "--samples", "-1"] + nev, (2,)),
        CliCase(["check", f_h1, "--samples", "0"] + nev, (2,)),
        CliCase(["check", f_h1, "--imag-floor", "0"] + nev, (2,)),
        CliCase(["check", f_h1, "--imag-floor", "-1"] + nev, (2,)),
        CliCase(["check", f_h1, "--box-radius", "0"] + nev, (2,)),
        CliCase(["check", f_h1, "--psd-slack", "nan"] + nev, (2,)),
        CliCase(["eval", f_pole, "--at=inf"], (2,)),
        CliCase(["verify", f_huge], (2, 3)),
    ]


def cli(seed, workdir, runner):
    """Every pass repeats the same invocations, so stdout can be compared."""
    cases = cli_cases(seed, workdir)
    items = [cli_item(c, runner) for c in cases]
    first_eval = next(c for c in cases if c.argv[0] == "eval")
    return lambda: items, cli_item(CliCase(first_eval.argv, (0,)), runner)
