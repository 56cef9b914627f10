"""Acceptance gate: one test per committed criterion, at the stated tolerance.

Run with -v for the one-line pass/fail per criterion; each test also prints
an explicit summary line (visible with -s or on failure).
"""

import json
import time

import numpy as np
import pytest

from darlington import (
    MatrixPoly,
    RationalMatrixFunction,
    check_cayley_inner,
    check_positive_real,
    coprime_probe,
    identity_equal,
    lemma11_probe,
    lemma12_probe,
    lift,
    realize_1d,
    restrict_at_i,
    rotate_to_nevanlinna,
    save_function,
)
from darlington.checks import double_cayley_eval
from darlington.cli import main
from corpus import herglotz_cases, ladder_cases, pair_cases

SEED = 0xDA71
MODULE_T0 = time.monotonic()


def sp(d, coeffs):
    return MatrixPoly.from_scalar_terms(d, coeffs)


def budget(t0, limit, label):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, "%s took %.1fs, budget %.0fs" % (label, elapsed, limit)
    return elapsed


def done(n, label):
    print("criterion %d (%s): PASS" % (n, label))


def real_grid(rng, n, d):
    return rng.uniform(-10.0, 10.0, size=(n, d)).astype(np.complex128)


def upper_grid(rng, n, d):
    re = rng.uniform(-10.0, 10.0, size=(n, d))
    im = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=(n, d)))
    return re + 1j * im


def disk_grid(rng, n, d):
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, d))
    radius = 0.97 * np.sqrt(rng.uniform(0.0, 1.0, size=(n, d)))
    return radius * np.exp(1j * theta)


def test_criterion_01_lift_identity():
    t0 = time.monotonic()
    corpus = herglotz_cases()
    assert len(corpus) >= 12
    assert {c.f.d for c in corpus} >= {1, 2, 3}
    assert {c.f.m for c in corpus} >= {1, 2}
    names = {c.name for c in corpus}
    assert {"const-i", "z1", "z1-plus-i", "neg-inv-shifted",
            "neg-inv-sum2", "diag-mixed"} <= names
    for case in corpus:
        L = lift(case.f)
        assert identity_equal(restrict_at_i(L.lifted), L.input, rtol=1e-12), case.name
    budget(t0, 5.0, "lift identity")
    done(1, "lift identity on %d-item corpus at 1e-12" % len(corpus))


def test_criterion_02_lift_boundary_reality():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    for case in herglotz_cases():
        g = lift(case.f).lifted
        assert g.num.bar_reflect() == g.num, case.name
        assert g.den.bar_reflect() == g.den, case.name
        pts = real_grid(rng, 1000, g.d)
        vals, ok = g.eval_many(pts)
        assert ok.sum() >= 900, case.name  # real-axis poles may eat a few points
        kept = vals[ok]
        im = np.linalg.norm((kept - np.conj(np.swapaxes(kept, 1, 2))) / 2j, axis=(1, 2))
        norms = np.linalg.norm(kept, axis=(1, 2))
        assert np.all(im <= 1e-8 * (1.0 + norms)), case.name
    budget(t0, 10.0, "boundary reality")
    done(2, "lifted reality, exact coefficients + 1000 real points at 1e-8")


def test_criterion_03_lift_positivity():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    for case in herglotz_cases():
        g = lift(case.f).lifted
        pts = upper_grid(rng, 1000, g.d)
        vals, ok = g.eval_many(pts)
        assert ok.all(), case.name  # no poles inside the upper region
        im = (vals - np.conj(np.swapaxes(vals, 1, 2))) / 2j
        eigs = np.linalg.eigvalsh((im + np.conj(np.swapaxes(im, 1, 2))) / 2)
        assert eigs[..., 0].min() >= -1e-8, case.name
    budget(t0, 30.0, "lift positivity")
    done(3, "lifted positivity at 1000 upper points per item, slack 1e-8")


def test_criterion_04_hand_oracle_lifts():
    one1, one2 = MatrixPoly.constant(1, 1.0), MatrixPoly.constant(2, 1.0)
    oracles = [
        (RationalMatrixFunction(sp(1, {(0,): 1j}), one1),
         RationalMatrixFunction(sp(2, {(0, 1): 1.0}), one2)),
        (RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): 1j}), one1),
         RationalMatrixFunction(sp(2, {(1, 0): 1.0, (0, 1): 1.0}), one2)),
        (RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j})),
         RationalMatrixFunction(sp(2, {(0, 0): -1.0}), sp(2, {(1, 0): 1.0, (0, 1): 1.0}))),
    ]
    for f, want in oracles:
        got = lift(f).lifted
        assert identity_equal(got, want, rtol=0.0)
    done(4, "hand-oracle lifts, exact")


def test_criterion_05_three_route_agreement():
    t0 = time.monotonic()
    corpus = pair_cases()
    planted = [c for c in corpus if not c.stable_pair]
    assert len(corpus) == 20 and len(planted) == 10
    for case in corpus:
        probe = lemma11_probe(case.p, case.q)
        assert probe.consistent, case.name
        assert probe.combined_falsified != case.stable_pair, case.name
        combined = case.p + case.q.scaled(1j)
        if probe.combined_falsified:
            z = np.array([complex(re, im) for re, im in probe.combined.witness["point"]])
            val = abs(combined.evaluate(z)[0, 0])
            assert val < 1e-10 * combined.max_coeff_magnitude(), case.name
        if probe.pencil_falsified:
            d = case.p.d
            pencil = (case.p.append_variable()
                      + MatrixPoly.variable(d + 1, d) * case.q.append_variable())
            z = np.array([complex(re, im) for re, im in probe.pencil.witness["point"]])
            val = abs(pencil.evaluate(z)[0, 0])
            assert val < 1e-10 * pencil.max_coeff_magnitude(), case.name
        if probe.any_member_falsified:
            w = probe.member_witness
            member = (case.p.scaled(float(np.cos(w["theta"])))
                      + case.q.scaled(float(np.sin(w["theta"]))))
            z = np.array([complex(re, im) for re, im in w["point"]])
            val = abs(member.evaluate(z)[0, 0])
            assert val < 1e-10 * member.max_coeff_magnitude(), case.name
    budget(t0, 60.0, "three-route agreement")
    done(5, "three-route stability agreement on 20 pairs, witnesses at 1e-10")


def test_criterion_06_ratio_cross_check():
    for case in pair_cases():
        if not case.ratio_defined or not case.coprime:
            continue
        pencil_fails = lemma11_probe(case.p, case.q).pencil_falsified
        ratio_fails = lemma12_probe(case.p, case.q).verdict == "fail"
        assert ratio_fails == pencil_fails, case.name
    done(6, "ratio sign-definiteness matches the pencil on coprime pairs")


def test_criterion_07_classical_realization():
    rng = np.random.default_rng(SEED)
    committed = [
        RationalMatrixFunction(sp(1, {(0,): 1.0}), sp(1, {(1,): 1.0, (0,): 1.0})),
        RationalMatrixFunction(sp(1, {(2,): 1.0, (1,): 1.0, (0,): 1.0}),
                               sp(1, {(2,): 1.0, (1,): 2.0, (0,): 1.0})),
    ]
    for f in committed:
        real = realize_1d(f)
        assert real.variant == "lft" and real.r == 1
        closure = real.closure()
        pts = (rng.uniform(0.05, 10.0, size=(100, 1))
               + 1j * rng.uniform(-10.0, 10.0, size=(100, 1)))
        want, ok1 = f.eval_many(pts)
        got, ok2 = closure.eval_many(pts)
        keep = ok1 & ok2
        assert keep.sum() >= 95
        err = np.abs(got[keep] - want[keep])[:, 0, 0]
        assert np.all(err <= 1e-9 * (1.0 + np.abs(want[keep][:, 0, 0])))
        block = real.block()
        assert check_positive_real(block).verdict == "pass"
        assert check_cayley_inner(rotate_to_nevanlinna(block)).verdict == "pass"
    done(7, "one-variable realization, closure at 1e-9 and lossless block")


def test_criterion_07_seeded_ladders():
    t0 = time.monotonic()
    pts = np.array([0.3 + 0.7j, 1.1 - 2.0j, 2.5 + 0.1j, 0.05 + 5.0j])
    axis = np.array([0.37j, -1.3j, 2.9j, 7.1j])
    ladders = ladder_cases(SEED, range(1, 17), 3)
    for lad in ladders:
        label = "order %d ladder %r" % (len(lad.branches), lad)
        real = realize_1d(lad.function())
        closure = real.closure()
        assert identity_equal(closure, real.source, rtol=1e-7), label
        got, ok = closure.eval_many(pts[:, None])
        want = lad.impedance(pts)
        assert ok.all(), label
        assert np.all(np.abs(got[:, 0, 0] - want) <= 1e-6 * np.abs(want)), label
        block = real.block()
        assert check_positive_real(block).verdict == "pass", label
        # lossless: the Hermitian part vanishes on the imaginary axis
        vals, ok = block.eval_many(axis[:, None])
        herm = vals[ok] + np.conj(np.swapaxes(vals[ok], 1, 2))
        assert np.abs(herm).max() <= 1e-10 * np.abs(vals[ok]).max(), label
    budget(t0, 3.0, "seeded ladders")
    done(7, "%d seeded ladders of orders 1-16 realized, exact and lossless" % len(ladders))


def test_criterion_08_double_cayley_contractive():
    rng = np.random.default_rng(SEED)
    for case in herglotz_cases():
        g = lift(case.f).lifted
        for w in disk_grid(rng, 500, g.d):
            s = double_cayley_eval(g, w)
            assert np.linalg.svd(s, compute_uv=False)[0] <= 1.0 + 1e-8, case.name
    done(8, "double Cayley contractive at 500 disk points per lift")


def test_criterion_09_coprime_probe_power():
    planted = [c for c in pair_cases() if c.coprime is False]
    clear = [c for c in pair_cases() if c.coprime is True]
    assert len(planted) == 2
    for k in range(100):
        for case in planted:
            v = coprime_probe(RationalMatrixFunction(case.p, case.q), lines=8, seed=k)
            assert v.verdict == "common-factor-found", (case.name, k)
        for case in clear:
            v = coprime_probe(RationalMatrixFunction(case.p, case.q), lines=8, seed=k)
            assert v.verdict != "common-factor-found", (case.name, k)
    done(9, "coprime probe: planted factors 100/100, no false positives")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("DARLINGTON_SEED", raising=False)
    neg_inv = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))
    diag = [c for c in herglotz_cases() if c.name == "diag-mixed"][0].f
    unstable = RationalMatrixFunction(sp(1, {(2,): 1.0, (0,): 1.0}),
                                      MatrixPoly.constant(1, 1.0))
    biquad = RationalMatrixFunction(sp(1, {(2,): 1.0, (1,): 1.0, (0,): 1.0}),
                                    sp(1, {(2,): 1.0, (1,): 2.0, (0,): 1.0}))
    f_neg = tmp_path / "neg.json"
    f_diag = tmp_path / "diag.json"
    f_poly = tmp_path / "poly.json"
    f_pr = tmp_path / "pr.json"
    save_function(str(f_neg), neg_inv, "nevanlinna")
    save_function(str(f_diag), diag, "nevanlinna")
    save_function(str(f_poly), unstable, "nevanlinna")
    save_function(str(f_pr), biquad, "positive-real")
    commands = [
        ["verify", str(f_neg)],
        ["verify", str(f_diag)],
        ["check", str(f_diag), "--class", "nevanlinna"],
        ["check", str(f_neg), "--class", "cayley-inner"],
        ["stable", str(f_poly)],
        ["realize1d", str(f_pr)],
    ]
    for k, argv in enumerate(commands):
        a = tmp_path / ("run_a_%d.json" % k)
        b = tmp_path / ("run_b_%d.json" % k)
        code_a = main(argv + ["-o", str(a)])
        code_b = main(argv + ["-o", str(b)])
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes(), argv
        doc = json.loads(a.read_text())
        assert set(doc) == {"command", "inputs", "seed", "tolerances",
                            "verdicts", "witnesses"}
        assert doc["seed"] == SEED
    elapsed = time.monotonic() - MODULE_T0
    assert elapsed < 170.0, "acceptance module took %.0fs" % elapsed
    done(10, "byte-identical reports on repeat runs, module in %.0fs" % elapsed)
