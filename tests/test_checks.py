"""Sampling-based class membership, stability falsification, and the probes."""

import json
import re
import warnings
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from darlington import (
    MatrixPoly,
    RationalMatrixFunction,
    SampleConfig,
    Tolerances,
    check_cayley_inner,
    check_nevanlinna,
    check_positive_real,
    check_real_stable,
    check_stable,
    lemma11_probe,
    lemma12_probe,
    pencil_probe,
    rotate_to_positive_real,
)
from darlington import checks
from darlington.checks import (
    OVERFLOW_NOTE,
    POLE_NOTE,
    PencilProbe,
    SingularCayley,
    disk_to_upper,
    double_cayley_eval,
    upper_points,
    upper_to_disk,
)
from corpus import herglotz_cases, pair_cases, planted_pairs, signed_zero_poly


def sp(d, coeffs):
    return MatrixPoly.from_scalar_terms(d, coeffs)


def one(d):
    return MatrixPoly.constant(d, 1.0)


FAST = SampleConfig(count=80)


# ----------------------------------------------------------------------
# membership checkers


def test_corpus_is_herglotz():
    for case in herglotz_cases():
        rep = check_nevanlinna(case.f, FAST)
        assert rep.verdict == "pass", "%s: %r" % (case.name, rep.witness)
        assert rep.worst_margin >= 0.0


def test_corpus_boundary_reality_flags():
    for case in herglotz_cases():
        rep = check_cayley_inner(case.f, FAST)
        want = "pass" if case.cayley_inner else "fail"
        assert rep.verdict == want, case.name


def test_nevanlinna_rejects_conjugate():
    # -z1 pushes the imaginary part down
    f = RationalMatrixFunction(sp(1, {(1,): -1.0}), one(1))
    rep = check_nevanlinna(f, FAST)
    assert rep.verdict == "fail"
    assert rep.worst_margin < 0.0
    assert rep.witness["part"] == "imag"
    z = complex(*rep.witness["point"][0])
    assert z.imag > 0.0  # the witness lies in the sampled region


def test_positive_real_frames():
    herglotz = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))
    pr = rotate_to_positive_real(herglotz)  # 1/(s+1)
    assert check_positive_real(pr, FAST).verdict == "pass"
    assert check_nevanlinna(pr, FAST).verdict == "fail"


def test_cayley_inner_needs_boundary_reality():
    # z1 + i is Herglotz but its boundary imaginary part is the constant 1
    f = RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): 1j}), one(1))
    rep = check_cayley_inner(f, FAST)
    assert rep.verdict == "fail"
    assert rep.witness["part"] == "boundary-reality"


def test_cayley_inner_flags_interior_violations_too():
    f = RationalMatrixFunction(sp(1, {(1,): -1.0}), one(1))
    rep = check_cayley_inner(f, FAST)
    assert rep.verdict == "fail"
    assert rep.witness["part"] == "interior-psd"


@pytest.mark.parametrize("terms", [{(9,): 1e300}, {(400,): 1.0}])
def test_overflowed_margins_never_pass(terms):
    # values overflow at part of the sample: those points are dropped, so
    # a NaN margin cannot turn into "pass" (z^400 also made the boundary
    # part's svd raise on NaN)
    f = RationalMatrixFunction(sp(1, terms), one(1))
    for check, part in ((check_nevanlinna, "imag"), (check_positive_real, "real"),
                        (check_cayley_inner, "imag")):
        rep = check(f)
        assert rep.verdict == "fail" and np.isfinite(rep.worst_margin), check.__name__
        val = f.eval(np.array([complex(*xy) for xy in rep.witness["point"]]))[0, 0]
        assert (val.imag if part == "imag" else val.real) < 0, check.__name__


@pytest.mark.parametrize("num, den, tols, note", [
    # every sample is on the pole floor when the floor is the whole denominator
    ({(1,): 1.0}, {(0,): 1.0}, Tolerances(den_floor=1.0), POLE_NOTE),
    # every value overflows, on both halves of the sample
    ({(1,): 1e300, (0,): 1e300}, {(0,): 1e-300}, None, OVERFLOW_NOTE),
])
def test_cayley_inner_inconclusive_notes(num, den, tols, note):
    rep = check_cayley_inner(RationalMatrixFunction(sp(1, num), sp(1, den)), FAST, tols)
    assert rep.verdict == "inconclusive" and rep.samples_used == 0
    assert rep.details["note"] == note
    assert rep.details["interior"]["verdict"] == "inconclusive"


def test_reports_are_deterministic():
    # -z1 fails with a witness at the random point of largest height, so the
    # margin is seed-sensitive while equal seeds reproduce bit for bit
    f = RationalMatrixFunction(sp(1, {(1,): -1.0}), one(1))
    a = check_nevanlinna(f, SampleConfig(seed=11, count=60))
    b = check_nevanlinna(f, SampleConfig(seed=11, count=60))
    assert a.to_dict() == b.to_dict()
    c = check_nevanlinna(f, SampleConfig(seed=12, count=60))
    assert c.worst_margin != a.worst_margin


def test_report_shape():
    f = RationalMatrixFunction(sp(1, {(1,): 1.0}), one(1))
    d = check_nevanlinna(f, FAST).to_dict()
    assert set(d) == {"check", "verdict", "samples_used", "worst_margin",
                      "witness", "seed", "details"}
    assert d["seed"] == 0xDA71


# ----------------------------------------------------------------------
# stability falsifier


def test_stable_finds_planted_root():
    rep = check_stable(sp(1, {(2,): 1.0, (0,): 1.0}), FAST)  # roots at +-i
    assert rep.verdict == "fail"
    assert rep.worst_margin < 0.0
    z = complex(*rep.witness["point"][0])
    assert abs(z - 1j) < 1e-6
    assert rep.witness["abs_value"] < 1e-10


def test_stable_never_passes():
    rep = check_stable(sp(1, {(1,): 1.0, (0,): 1.0}), FAST)  # root at -1, on the axis edge
    assert rep.verdict == "inconclusive"
    assert rep.witness is None


def test_stable_zero_polynomial_fails():
    rep = check_stable(MatrixPoly.zero(1), FAST)
    assert rep.verdict == "fail"
    assert rep.worst_margin == -1.0


def test_stable_constant_is_inconclusive():
    rep = check_stable(sp(1, {(0,): 3.0}), FAST)
    assert rep.verdict == "inconclusive"


def test_stable_boundary_zeros_stay_out_of_reach():
    # z1 z2 vanishes only when some coordinate is real (zero), never with
    # both strictly above the axis, so the falsifier must come up empty
    rep = check_stable(sp(2, {(1, 1): 1.0}), FAST)
    assert rep.verdict == "inconclusive"


def test_stable_finds_two_variable_root():
    rep = check_stable(sp(2, {(1, 0): 1.0, (0, 1): -1.0}), FAST)  # z1 = z2
    assert rep.verdict == "fail"


def test_real_stable_rejects_complex_coefficients():
    rep = check_real_stable(sp(1, {(1,): 1.0, (0,): 1j}), FAST)
    assert rep.verdict == "fail"
    assert rep.witness["part"] == "non-real-coefficients"
    assert rep.worst_margin < 0.0


def test_real_stable_witness_skips_overflowed_points():
    # Im p overflows at the real points with |x| > 8.3; they are dropped, so
    # the witness is the largest finite imaginary part and re-evaluates
    p = sp(1, {(9,): 1e300j, (0,): 1.0})
    rep = check_real_stable(p)
    assert rep.verdict == "fail" and np.isfinite(rep.worst_margin)
    w = rep.witness
    assert w["imag_value"] == -rep.worst_margin
    assert abs(p.evaluate([complex(*xy) for xy in w["point"]])[0, 0].imag) == w["imag_value"]


def test_real_stable_is_inconclusive_when_every_value_overflows():
    rep = check_real_stable(sp(1, {(9,): 1e300j, (0,): 1.0}), SampleConfig(box_radius=1e10))
    assert rep.verdict == "inconclusive" and rep.samples_used == 0
    assert rep.details["note"] == OVERFLOW_NOTE and rep.witness is None


def test_realness_threshold_shared_by_real_stable_and_pencil():
    # an imaginary part of 1e-13 of the largest coefficient counts as real,
    # one of 1e-11 does not, in check_real_stable and pencil_probe alike
    for eps, real in ((1e-13, True), (1e-11, False)):
        p = sp(1, {(1,): 1.0, (0,): 1.0 + 1j * eps})
        rep = check_real_stable(p, FAST)
        assert rep.details.get("imag_coeff_max") == (None if real else eps)
        if real:
            pencil_probe(p, one(1), FAST)
        else:
            with pytest.raises(ValueError, match="p must have real coefficients"):
                pencil_probe(p, one(1), FAST)


def test_tolerances_to_dict_keeps_field_order():
    assert list(Tolerances().to_dict().items()) == [
        ("psd_slack", 1e-8), ("reality_slack", 1e-8), ("den_floor", 1e-12)]
    tols = Tolerances(2e-7, 3e-9, 4e-11)
    assert list(tols.to_dict().items()) == list(asdict(tols).items())
    tols.to_dict()["psd_slack"] = 1.0     # a fresh dict per call
    assert tols.to_dict()["psd_slack"] == 2e-7


def test_real_stable_delegates_to_zero_hunt():
    rep = check_real_stable(sp(1, {(2,): 1.0, (0,): 1.0}), FAST)
    assert rep.verdict == "fail"
    assert "abs_value" in rep.witness


@pytest.mark.parametrize("route, check", [
    (lambda: check_real_stable(MatrixPoly.zero(1), FAST), "real-stable"),
    (lambda: check_real_stable(MatrixPoly.constant(0, 2.0), FAST), "real-stable"),
    (lambda: check_real_stable(sp(1, {(1,): 1.0, (0,): 1j}), FAST), "real-stable"),
    (lambda: check_real_stable(sp(1, {(2,): 1.0, (0,): 1.0}), FAST), "real-stable"),
    (lambda: pencil_probe(sp(1, {(1,): 1.0}), one(1), FAST), "pencil-real-stable"),
    (lambda: lemma11_probe(sp(1, {(2,): 1.0}), one(1), FAST, members=5), "combined-stable"),
], ids=["zero", "constant", "non-real", "hunted", "pencil", "lemma11-combined"])
def test_each_route_builds_its_report_under_its_name(route, check):
    # reports and probe results are frozen, so the name is the one each was built with
    out = route()
    rep = out.combined if isinstance(out, PencilProbe) else out
    assert rep.check == check
    with pytest.raises(FrozenInstanceError):
        rep.check = "stable"
    with pytest.raises(FrozenInstanceError):
        out.seed = 0


@pytest.mark.parametrize("members", [-1, 2.5, 3.0, True, "4"])
def test_lemma11_rejects_a_negative_member_count(members):
    message = "members must be an integer >= 0, got " + re.escape(repr(members))
    with pytest.raises(ValueError, match=message):
        lemma11_probe(sp(1, {(1,): 1.0}), one(1), FAST, members=members)


# ----------------------------------------------------------------------
# pair probes


def test_pair_corpus_three_routes_agree():
    for case in pair_cases():
        probe = lemma11_probe(case.p, case.q, FAST)
        assert probe.consistent, case.name
        falsified = probe.combined_falsified
        assert falsified != case.stable_pair, case.name


def test_pencil_probe_matches_direct_pencil():
    p = sp(1, {(1,): 1.0})
    q = one(1)
    rep = pencil_probe(p, q, FAST)
    assert rep.check == "pencil-real-stable"
    assert rep.verdict == "inconclusive"
    bad = pencil_probe(sp(1, {(2,): 1.0}), one(1), FAST)
    assert bad.verdict == "fail"


def test_pencil_probe_reports_match_the_arithmetic_pencil():
    # pencil_probe builds p + z_new q from stacks with lift's builder; the
    # hunt over the pencil that MatrixPoly arithmetic builds reports the same
    pairs = [(case.p, case.q) for case in pair_cases()]
    pairs += [(p, q) for p, q, _ in planted_pairs(1)]
    for p, q in pairs:
        pencil = p.append_variable() + MatrixPoly.variable(p.d + 1, p.d) * q.append_variable()
        keys, stack = MatrixPoly._aligned([pencil])
        want = checks._hunt(pencil.d, keys, stack[:, :, 0, 0],
                            [("pencil-real-stable", FAST, True)], Tolerances())[0]
        assert json.dumps(pencil_probe(p, q, FAST).to_dict()) == json.dumps(want.to_dict())


def test_pencil_probe_requires_real_pair():
    with pytest.raises(ValueError):
        pencil_probe(sp(1, {(1,): 1j}), one(1), FAST)


def test_ratio_probe_agrees_on_coprime_pairs():
    for case in pair_cases():
        if not case.ratio_defined or not case.coprime:
            continue
        probe = lemma11_probe(case.p, case.q, FAST)
        ratio = lemma12_probe(case.p, case.q, FAST)
        assert (ratio.verdict == "fail") == probe.pencil_falsified, case.name


def test_ratio_probe_diverges_on_planted_factor():
    # (z^3 + z) / (z^2 + 1): the shared factor hides the pencil's zero from
    # the ratio, which sees only the reduced coprime quotient
    case = [c for c in pair_cases() if c.name == "planted-factor-1var"][0]
    assert lemma11_probe(case.p, case.q, FAST).pencil_falsified
    assert lemma12_probe(case.p, case.q, FAST).verdict == "pass"


def test_lemma11_probe_to_dict_round_trips():
    case = pair_cases()[0]
    d = lemma11_probe(case.p, case.q, FAST).to_dict()
    assert set(d) == {"combined", "pencil", "members_falsified", "members_checked",
                      "member_witness", "consistent", "seed"}
    assert d["consistent"] is True


def test_lemma11_member_witness_carries_angle():
    probe = lemma11_probe(sp(1, {(2,): 1.0}), one(1), FAST)
    assert probe.any_member_falsified
    assert "theta" in probe.member_witness


def descent_reference(p, cfg, euler=True):
    """check_stable's zero hunt as one descent per polynomial, with the
    gradient from differentiate(): the loop the batched descent replaced,
    kept as its reference.  With ``euler`` the gradient is taken in the
    batched descent's form, ``(z_k dp/dz_k) / z_k``.  Returns the best point
    and value."""
    pts = upper_points(cfg, np.random.default_rng(cfg.seed), p.d)
    Z = pts[np.argsort(np.abs(p.evaluate_many(pts)[:, 0, 0]))[:20]]
    grads = [p.differentiate(k) for k in range(p.d)]
    if euler:
        grads = [MatrixPoly.variable(p.d, k) * g for k, g in enumerate(grads)]
    vals = p.evaluate_many(Z)[:, 0, 0]
    for _ in range(50):
        G = np.stack([g.evaluate_many(Z)[:, 0, 0] for g in grads], axis=1)
        if euler:
            G = G / Z
        gn2 = (np.abs(G) ** 2).sum(axis=1)
        safe = gn2 > 1e-300
        step = np.zeros_like(Z)
        step[safe] = -(vals[safe, None] * np.conj(G[safe])) / gn2[safe, None]
        t = np.ones(len(Z))
        improved = np.zeros(len(Z), dtype=bool)
        for _ in range(8):
            cand = Z + t[:, None] * step
            cand = cand.real + 1j * np.maximum(cand.imag, cfg.imag_floor * 0.5)
            cv = p.evaluate_many(cand)[:, 0, 0]
            better = (np.abs(cv) < np.abs(vals)) & ~improved
            Z[better], vals[better] = cand[better], cv[better]
            improved |= better
            t = np.where(improved, t, t * 0.5)
            if improved.all():
                break
        if not improved.any():
            break
    k = int(np.argmin(np.abs(vals)))
    return Z[k], abs(vals[k])


def test_batched_descent_matches_reference():
    # the batched descent takes value and gradient from the plan, so it
    # rounds differently: verdicts agree exactly, and values where no zero
    # is found to 1e-9.  A fail stops once a row is below RETIRE_RTOL, where
    # the reference runs on, so the two may end on different zeros of the
    # same variety: the witness must re-evaluate as a zero instead.  With the
    # plain gradient only the verdicts are compared
    polys = []
    for case in pair_cases():
        p, q, d = case.p, case.q, case.p.d
        polys += [p + q.scaled(1j),
                  p.append_variable() + MatrixPoly.variable(d + 1, d) * q.append_variable(),
                  p.scaled(0.6) + q.scaled(-0.8)]
    for p in polys:
        rep = check_stable(p, FAST)
        threshold = 1e-10 * p.max_coeff_magnitude()
        _, value = descent_reference(p, FAST)
        assert (value < threshold) == (rep.verdict == "fail")
        if rep.verdict == "fail":
            got = [complex(*xy) for xy in rep.witness["point"]]
            assert abs(p.evaluate(got)[0, 0]) <= threshold
            assert rep.witness["abs_value"] < checks.RETIRE_RTOL * p.max_coeff_magnitude()
        else:
            assert rep.details["refined_abs_value"] == pytest.approx(value, rel=1e-9)
        _, value = descent_reference(p, FAST, euler=False)
        assert (value < threshold) == (rep.verdict == "fail")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_value_and_euler_terms_match_differentiate(d):
    # the descent's one kernel: column 0 is p, column k is z_k dp/dz_k
    rng = np.random.default_rng([d, 11])
    absent = d - 1 if d > 1 else None   # a variable that appears in no term
    terms = {}
    for _ in range(8):
        e = tuple(0 if k == absent else int(x) for k, x in enumerate(rng.integers(0, 5, d)))
        terms[e] = complex(*rng.standard_normal(2))
    p = sp(d, terms)
    cfg = SampleConfig(seed=d, count=20, box_radius=1.0)
    Z = upper_points(cfg, np.random.default_rng(cfg.seed), d)
    Z[:5] = Z[:5].real + 0.5j * cfg.imag_floor   # the descent's clipped floor
    exps = np.array([(1,) + e for e, _ in p.ordered_terms()])
    coeffs = np.array([a[0, 0] for _, a in p.ordered_terms()])
    table = checks._values(p, np.repeat((exps * coeffs[:, None]).T[None], len(Z), axis=0), Z)
    assert table.shape == (len(Z), d + 1)
    np.testing.assert_allclose(table[:, 0], p.evaluate_many(Z)[:, 0, 0], rtol=1e-12, atol=1e-12)
    for k in range(d):
        np.testing.assert_allclose(table[:, k + 1] / Z[:, k],
                                   p.differentiate(k).evaluate_many(Z)[:, 0, 0],
                                   rtol=1e-12, atol=1e-12)
    if absent is not None:
        assert not table[:, absent + 1].any()


@pytest.mark.parametrize("p", [sp(1, {(4,): 1.0}), sp(2, {(1, 0): 1.0, (0, 1): 1.0})])
def test_tiny_imaginary_floor_keeps_the_hunt_finite(p):
    # the hunt divides by z_k, and a tiny floor drives coordinates to 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_stable(p, SampleConfig(imag_floor=1e-300))
    assert np.isfinite(rep.worst_margin)


def descent_loop_reference(basis, coeffs, owner, Z, floor, level, retire=False, log=None):
    """_descend_to_zero's loop before stopped rows were retired, kept as its
    reference: a polynomial stays live while any of its rows improved, and
    every row of a live polynomial is retried.  With ``retire`` each row
    stays live only while it improves, as in _descend_to_zero.  Either way a
    polynomial settles once one of its rows is below that row's ``level``,
    on the starts or after an iteration, and then none of its rows is tried
    again.  It values the starts once and each line-search try once, one
    try per step size, carrying every gradient over from the try that
    accepted its point.  A ``log`` list receives one ``(halving, stayed,
    better)`` per try: the try's index 0-7 and, per row tried, whether its
    candidate is its own point and whether the candidate lowered |p|.
    Returns the rows, their values and, per polynomial, the iterations in
    which it had a row tried."""
    W = coeffs[:, None] * np.array([(1,) + e for e, _ in basis.ordered_terms()]).T
    Z = Z.copy()
    vals = checks._values(basis, W[owner], Z)
    key = np.arange(len(Z)) if retire else owner
    live = np.ones(len(Z) if retire else len(coeffs), dtype=bool)
    iterations = np.zeros(len(coeffs), dtype=np.int64)
    for it in range(1, 51):
        for g in range(len(coeffs)):
            mine = owner == g
            if (np.abs(vals[mine, 0]) < level[mine]).any():
                live[key[mine]] = False
        rows = np.flatnonzero(live[key])
        if not len(rows):
            break
        iterations[owner[rows]] = it
        own, z, v = owner[rows], Z[rows], vals[rows]
        w = W[own]
        G = v[:, 1:] / z
        gn2 = (np.abs(G) ** 2).sum(axis=1)
        safe = gn2 > 1e-300
        step = np.zeros_like(G)
        step[safe] = -(v[safe, :1] * np.conj(G[safe])) / gn2[safe, None]
        t, av, fl = np.ones(len(rows)), np.abs(v[:, 0]), floor[own, None]
        improved = np.zeros(len(live), dtype=bool)
        for halving in range(8):
            cand = z + t[:, None] * step
            np.maximum(cand.imag, fl, out=cand.imag)
            cv = checks._values(basis, w, cand)
            better = np.abs(cv[:, 0]) < av
            if log is not None:
                log.append((halving, (cand == z).all(axis=1), better))
            if better.any():
                done = rows[better]
                Z[done], vals[done] = cand[better], cv[better]
                improved[key[done]] = True
                keep = ~better
                if not keep.any():
                    break
                rows, own, z, w, step, t, av, fl = (
                    a[keep] for a in (rows, own, z, w, step, t, av, fl))
            t = t * 0.5
        live &= improved
    return Z, vals[:, 0], iterations


def capture_descents(monkeypatch, run):
    """The arguments of every descent that ``run()`` makes."""
    captured, descend = [], checks._descend_to_zero
    monkeypatch.setattr(checks, "_descend_to_zero",
                        lambda *args: captured.append(args) or descend(*args))
    run()
    monkeypatch.setattr(checks, "_descend_to_zero", descend)
    return captured


def test_descent_makes_at_most_two_monomials_passes_per_iteration(monkeypatch):
    # one monomials pass values the starts; each iteration adds one for the
    # full step and at most one for the seven halvings together, where the
    # reference makes one per try
    def run():
        for case in pair_cases()[:4]:
            lemma11_probe(case.p, case.q, FAST, members=10)
        check_stable(sp(2, {(1, 0): 1.0, (0, 1): -1.0}), FAST)

    captured = capture_descents(monkeypatch, run)
    passes, monomials = [0], MatrixPoly.monomials

    def counted(self, Z):
        passes[0] += 1
        return monomials(self, Z)

    monkeypatch.setattr(MatrixPoly, "monomials", counted)
    total, total_ref = 0, 0
    for args in captured:
        passes[0], tries = 0, []
        got = checks._descend_to_zero(*args)
        n = passes[0]
        passes[0] = 0
        want = descent_loop_reference(*args, retire=True, log=tries)
        iterations = sum(halving == 0 for halving, _, _ in tries)
        assert n <= 1 + 2 * iterations
        assert n <= passes[0]   # equal only in a descent cut off at 50 iterations
        total, total_ref = total + n, total_ref + passes[0]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    assert total < total_ref


def test_rows_whose_full_step_stays_put_skip_the_halvings(monkeypatch):
    # a full step that lands on the row's own point (clipped back onto the
    # floor, or a zero step) lands there at every halving, so the row retires
    # without the halvings batch.  Every row is valued once per iteration for
    # the full step, and seven times for the halvings if it moved but did not
    # improve.  The hunts of z1^4 and z1^9 improve at every full step; the
    # corpus hunts have rows that stay put.
    def run():
        for p in (sp(1, {(4,): 1.0}), sp(1, {(9,): 1.0})):
            check_stable(p, FAST)
        for case in pair_cases():
            check_stable(case.p + case.q.scaled(1j), FAST)

    captured = capture_descents(monkeypatch, run)
    rows, values = [0], checks._values

    def counted(basis, weights, Z):
        rows[0] += len(Z)
        return values(basis, weights, Z)

    monkeypatch.setattr(checks, "_values", counted)
    stayed = 0
    for args in captured:
        rows[0], tries = 0, []
        got = checks._descend_to_zero(*args)
        valued = rows[0]
        want = descent_loop_reference(*args, retire=True, log=tries)
        full = [(same, better) for halving, same, better in tries if halving == 0]
        halved = sum(int((~same & ~better).sum()) for same, better in full)
        stayed += sum(int(same.sum()) for same, _ in full)
        assert valued == len(args[3]) * (1 + len(full)) + 7 * halved
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    assert stayed


def test_halvings_batch_takes_the_first_improving_halving(monkeypatch):
    # a row takes the first halving that lowers |p|, as the per-try loop did,
    # not the lowest one.  Each start of a corpus hunt descends alone; once a
    # halvings batch has a later halving lower than the first improving one,
    # every further _values call gives NaN, so the descent stops at the point
    # that batch gave it
    case = next(case for case in pair_cases() if case.name == "planted-factor-1var")
    captured = capture_descents(monkeypatch, lambda: check_stable(case.p + case.q.scaled(1j), FAST))
    values = checks._values
    state = {}

    def stop_after_a_choice(basis, weights, Z):
        out = values(basis, weights, Z)
        if "taken" in state:
            return np.full_like(out, np.nan)
        a = np.abs(out[:, 0])
        if len(Z) == 7:     # the halvings batch of the one row
            better = np.flatnonzero(a < state["av"])
            if len(better) > 1 and a[better[1:]].min() < a[better[0]]:
                state["taken"] = Z[better[0]]
            if len(better):
                state["av"] = a[better[0]]
        elif "av" not in state or a[0] < state["av"]:
            state["av"] = a[0]      # the start, or a full step that improved
        return out

    monkeypatch.setattr(checks, "_values", stop_after_a_choice)
    found = 0
    for basis, coeffs, owner, Z, floor, level in captured:
        for r in range(len(Z)):
            state.clear()
            with np.errstate(all="ignore"):
                got = checks._descend_to_zero(basis, coeffs, owner[r:r + 1], Z[r:r + 1], floor,
                                              level[r:r + 1])[0]
            if "taken" in state:
                found += 1
                assert got[0].tobytes() == state["taken"].tobytes()
    assert found


def hunt_pairs(pairs):
    """Every zero hunt of the pair probes on (p, q) pairs; their reports."""
    return [rep.to_dict() for p, q in pairs
            for rep in (check_stable(p + q.scaled(1j), FAST), pencil_probe(p, q, FAST),
                        lemma11_probe(p, q, FAST, members=10))]


def run_both_descents(monkeypatch):
    """Make every descent run descent_loop_reference on the same rows too.

    Returns the list that collects, per descent, its result, the
    reference's result and the line-search rows each evaluated.
    """
    runs, rows = [], [0]
    descend, values = checks._descend_to_zero, checks._values

    def counted(basis, coeffs, Z):
        rows[0] += len(Z)
        return values(basis, coeffs, Z)

    def line_search(descent, args):
        rows[0] = -len(args[3])  # not the first call, which values the starts
        return descent(*args), rows[0]

    def both(*args):
        got, n = line_search(descend, args)
        want, n_ref = line_search(descent_loop_reference, args)
        runs.append((got, want, n, n_ref))
        return got

    monkeypatch.setattr(checks, "_values", counted)
    monkeypatch.setattr(checks, "_descend_to_zero", both)
    return runs


@pytest.fixture(scope="module")
def corpus_descents():
    with pytest.MonkeyPatch.context() as mp:
        runs = run_both_descents(mp)
        hunt_pairs([(case.p, case.q) for case in pair_cases()])
    return runs


def test_descent_matches_loop_reference_bit_for_bit(monkeypatch, corpus_descents):
    runs = run_both_descents(monkeypatch)
    hunt_pairs([(sp(1, {(9,): 1e300}), one(1))])
    for p in (sp(1, {(4,): 1.0}), sp(1, {(9,): 1.0})):
        check_stable(p, FAST)
    for got, want, _, _ in corpus_descents + runs:
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_descent_does_not_retry_stopped_rows(corpus_descents):
    # a stopped row's next line search would repeat its last one, so the
    # bit-exact test cannot tell retrying it from retiring it; the work can.
    # Retired rows may be valued in the full-step batch, but they carry a
    # zero step and are never accepted.
    assert sum(run[2] for run in corpus_descents) < sum(run[3] for run in corpus_descents)


def test_hunts_without_a_zero_are_untouched_by_the_settle_rule(monkeypatch):
    # no row of a hunt without a zero gets below its level, so the rule
    # retires nothing: the descents value as many rows, and the reports are
    # byte-identical, as with the rule off (a level of 0)
    moebius = next(case for case in pair_cases() if case.name == "moebius")
    pairs = [(moebius.p, moebius.q)]
    pairs += [(p, q) for seed in (1, 2, 3) for p, q, stable in planted_pairs(seed) if stable]
    rows, values = [0], checks._values

    def counted(basis, weights, Z):
        rows[0] += len(Z)
        return values(basis, weights, Z)

    monkeypatch.setattr(checks, "_values", counted)
    runs = []
    for rtol in (checks.RETIRE_RTOL, 0.0):
        monkeypatch.setattr(checks, "RETIRE_RTOL", rtol)
        rows[0] = 0
        reports = json.dumps(hunt_pairs(pairs))
        runs.append((rows[0], reports))
    assert runs[0] == runs[1]
    assert '"fail"' not in runs[0][1] and '"descent_iterations"' in runs[0][1]


def test_no_iteration_runs_once_every_polynomial_is_settled(monkeypatch):
    # a descent cut at the full step of its last iteration (from there on
    # every _values call gives NaN, which no row accepts) returns its rows as
    # that iteration found them: some polynomial must still have had no row
    # below its level.  The full steps are the calls that reuse the starts'
    # weights, and their count is the largest descent_iterations
    captured = capture_descents(monkeypatch, lambda: hunt_pairs(
        [(case.p, case.q) for case in pair_cases()]))
    values = checks._values
    all_settled = 0
    for basis, coeffs, owner, Z, floor, level in captured:
        def run(cut):
            first, steps = [], [0]

            def logged(b, weights, X):
                out = values(b, weights, X)
                if not first:
                    first.append(weights)
                elif weights is first[0]:
                    steps[0] += 1
                return np.full_like(out, np.nan) if steps[0] >= cut else out

            monkeypatch.setattr(checks, "_values", logged)
            got = checks._descend_to_zero(basis, coeffs, owner, Z, floor, level)
            monkeypatch.setattr(checks, "_values", values)
            return got, steps[0]

        def settled(vals):
            below = np.abs(vals) < level
            return [bool(below[owner == g].any()) for g in range(len(coeffs))]

        (_, vals, iterations), n = run(cut=51)
        assert n == iterations.max()
        all_settled += n < 50 and all(settled(vals))
        if n:
            (_, vals, _), _ = run(cut=n)
            assert not all(settled(vals))
    assert all_settled


def test_descent_iterations_do_not_depend_on_the_batch():
    # hunted together or alone, a polynomial gets the same report, its
    # descent_iterations included: the batch's shared basis only adds terms
    # of weight 0, which keep the order of the others and add exact zeros
    pairs = [(case.p, case.q) for case in pair_cases() if not case.q.is_zero()]
    pairs += [(p, q) for p, q, _ in planted_pairs(1)]
    counts = set()
    for p, q in pairs:
        # the combined polynomial and four members, as lemma11_probe batches them
        polys, jobs = [p + q.scaled(1j)], [("combined-stable", FAST, False)]
        for k, theta in enumerate(np.linspace(0.3, 2.8, 4)):
            polys.append(p.scaled(float(np.cos(theta))) + q.scaled(float(np.sin(theta))))
            jobs.append(("real-stable", replace(FAST, seed=k + 1, count=40), True))
        keys, stack = MatrixPoly._aligned(polys)
        batched = checks._hunt(p.d, keys, stack[:, :, 0, 0], jobs, Tolerances())
        for poly, job, rep in zip(polys, jobs, batched):
            alone = checks._hunt(p.d, list(poly.terms), poly._coeffs[None, :, 0, 0], [job],
                                 Tolerances())[0]
            assert alone.to_dict() == rep.to_dict()
            counts.add(rep.details["descent_iterations"])
    assert len(counts) > 5


def test_every_hunted_fail_re_evaluates_below_the_threshold():
    pairs = [(case.p, case.q) for case in pair_cases()]
    pairs += [(p, q) for seed in (1, 2, 3) for p, q, _ in planted_pairs(seed)]
    fails = 0
    for p, q in pairs:
        d = p.d
        combined = p + q.scaled(1j)
        pencil = p.append_variable() + MatrixPoly.variable(d + 1, d) * q.append_variable()
        probe = lemma11_probe(p, q, FAST, members=10)
        found = [(combined, check_stable(combined).witness), (pencil, pencil_probe(p, q).witness),
                 (combined, probe.combined.witness), (pencil, probe.pencil.witness)]
        if probe.member_witness:
            theta = probe.member_witness["theta"]
            member = p.scaled(float(np.cos(theta))) + q.scaled(float(np.sin(theta)))
            found.append((member, probe.member_witness))
        for poly, witness in found:
            if witness is None:
                continue
            z = np.array([complex(*xy) for xy in witness["point"]])
            assert (z.imag > 0).all()
            assert abs(poly.evaluate(z)[0, 0]) <= checks.ROOT_ABS_RTOL * poly.max_coeff_magnitude()
            fails += 1
    assert fails > 100


def per_member_loop(p, q, cfg, members):
    """lemma11_probe's member route as one check_real_stable call per member.

    The loop the batched descent replaced, kept as its reference: same
    angles, skip rule and sub-seed order.  Returns (falsified, checked,
    theta of the first falsified member).
    """
    rng = np.random.default_rng(cfg.seed)
    thetas = rng.uniform(0.0, np.pi, members)
    scale = max(p.max_coeff_magnitude(), q.max_coeff_magnitude(), 1e-300)
    falsified, checked, theta_w = 0, 0, None
    for theta in thetas:
        member = p.scaled(float(np.cos(theta))) + q.scaled(float(np.sin(theta)))
        if member.max_coeff_magnitude() <= 1e-14 * scale:
            continue
        checked += 1
        sub_cfg = replace(cfg, seed=int(rng.integers(2**31 - 1)), count=max(40, cfg.count // 4))
        if check_real_stable(member, sub_cfg).verdict == "fail":
            falsified += 1
            theta_w = float(theta) if theta_w is None else theta_w
    return falsified, checked, theta_w


@pytest.mark.parametrize("cfg", [FAST, SampleConfig()], ids=["fast", "default"])
def test_lemma11_batch_matches_per_member_loop(cfg):
    # 10 members keep the reference loop's one descent per member affordable
    for case in pair_cases():
        probe = lemma11_probe(case.p, case.q, cfg, members=10)
        theta = probe.member_witness["theta"] if probe.member_witness else None
        got = (probe.members_falsified, probe.members_checked, theta)
        assert got == per_member_loop(case.p, case.q, cfg, 10), case.name
        combined = check_stable(case.p + case.q.scaled(1j), cfg)
        assert probe.combined.verdict == combined.verdict, case.name


def hunted_table(monkeypatch, p, q, thetas):
    """The keys and the table that lemma11_probe(p, q) hands the hunt when
    its angles are ``thetas``.  The pair's realness check, the angle draw
    and the hunts are stubbed out, so any pair can be given."""

    class Angles:
        def uniform(self, lo, hi, n):
            assert n == len(thetas)
            return np.asarray(thetas, dtype=float)

        def integers(self, high):
            return 1

    seen, blank = [], checks.CheckReport("stub", "inconclusive", 0, 0.0, None, 0)

    def hunt(d, keys, table, jobs, tols):
        seen.append((keys, table))
        return [blank] * len(jobs)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_scalar_pair", lambda p, q, real: (p, q))
        patch.setattr(checks, "_setup", lambda config, tolerances: (FAST, Tolerances(), Angles()))
        patch.setattr(checks, "_hunt", hunt)
        lemma11_probe(p, q, members=len(thetas))
    return seen[-1]    # the first is pencil_probe's


def test_lemma11_rows_equal_polynomial_arithmetic(monkeypatch):
    # lemma11_probe hunts p + i q and every member cos(t) p + sin(t) q as
    # rows of one table aligned on p's keys, then q's new ones; each row
    # holds the coefficients MatrixPoly arithmetic gives, and 0 at the keys
    # that polynomial lacks.  A member whose terms all cancel is skipped
    t0 = 1.234
    c0, s0 = float(np.cos(t0)), float(np.sin(t0))
    pairs = [
        (sp(1, {(2,): -1.5, (0,): 2.0}), sp(1, {(1,): -3.0})),            # disjoint supports
        (sp(2, {(1, 0): 1.0, (0, 1): -2.0, (0, 0): 0.5}),
         sp(2, {(0, 1): 1.0, (1, 1): -1.0, (0, 0): -0.25})),              # overlapping
        (sp(1, {(1,): s0, (0,): 1.0}), sp(1, {(1,): -c0, (2,): 2.0})),     # (1,) cancels at t0
        (sp(1, {(1,): s0}), sp(1, {(1,): -c0})),                           # all of it cancels
        (sp(2, {}), sp(2, {(0, 1): -1.0})),
    ]
    rng = np.random.default_rng(5)
    pairs += [(signed_zero_poly(rng, d, 1, 4), signed_zero_poly(rng, d, 1, 4))
              for d in (0, 1, 2, 3) for _ in range(3)]
    pairs += [(case.p, case.q) for case in pair_cases()]
    pairs += [(p, q) for p, q, _ in planted_pairs(1)]
    thetas = np.concatenate(([t0, 0.0], rng.uniform(0.0, np.pi, 8)))
    for p, q in pairs:
        keys, table = hunted_table(monkeypatch, p, q, thetas)
        assert keys == list(dict.fromkeys([*p.terms, *q.terms]))
        scale = max(p.max_coeff_magnitude(), q.max_coeff_magnitude(), 1e-300)
        want = [p + q.scaled(1j)]
        want += [m for m in (p.scaled(float(np.cos(t))) + q.scaled(float(np.sin(t)))
                             for t in thetas) if m.max_coeff_magnitude() > 1e-14 * scale]
        assert table.shape == (len(want), len(keys))
        for row, poly in zip(table, want):
            coeffs = [poly.terms[e][0, 0] if e in poly.terms else 0.0 for e in keys]
            np.testing.assert_array_equal(row, np.array(coeffs, dtype=np.complex128))
    keys, table = hunted_table(monkeypatch, *pairs[2], [t0])
    assert keys == [(1,), (0,), (2,)] and table[1, 0] == 0 and table[1, 1:].all()
    assert len(hunted_table(monkeypatch, *pairs[3], [t0])[1]) == 1


def test_lemma11_reports_members_with_non_real_coefficients():
    # p's imaginary part 9e-13 passes as real next to its coefficient 1, but
    # the member cos(t) p + sin(t) q = (cos t - sin t)(z1 + 1) + 9e-13j cos t
    # is non-real once 9e-13 cos t > COEFF_REAL_RTOL |cos t - sin t|, that is
    # for 0.0997 < t < 1.086: 9 of the 50 angles.  Those members fail on
    # their coefficients without a hunt; the others' zeros lie within 1e-12
    # of -1, below the hunt's imaginary floor
    p = sp(1, {(1,): 1.0, (0,): 1 + 9e-13j})
    q = sp(1, {(1,): -1.0, (0,): -1.0})
    probe = lemma11_probe(p, q)
    assert (probe.members_falsified, probe.members_checked) == (9, 50)
    w = probe.member_witness
    assert w["part"] == "non-real-coefficients"
    assert w["point"] == [[3.5557931696966527, 0.0]]
    assert w["theta"] == 0.20224485074040685


def test_descent_needs_no_derivative_polynomials(monkeypatch):
    def refuse(self, k):
        raise AssertionError("the descent takes its gradient from the plan")

    monkeypatch.setattr(MatrixPoly, "differentiate", refuse)
    assert check_stable(sp(2, {(1, 0): 1.0, (0, 1): -1.0}), FAST).verdict == "fail"
    probe = lemma11_probe(sp(1, {(2,): 1.0}), one(1), FAST)
    assert probe.pencil_falsified and probe.any_member_falsified


def test_overflowing_pair_gives_finite_margins_and_no_warning():
    p, q = sp(1, {(9,): 1e300}), one(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = lemma11_probe(p, q, FAST)
        ratio = lemma12_probe(p, q, FAST)
    for rep in (probe.combined, probe.pencil, ratio):
        assert not np.isnan(rep.worst_margin), rep.check
    w = probe.member_witness
    assert w is not None
    member = p.scaled(float(np.cos(w["theta"]))) + q.scaled(float(np.sin(w["theta"])))
    val = member.evaluate([complex(*xy) for xy in w["point"]])[0, 0]
    assert abs(val) <= 1e-10 * member.max_coeff_magnitude()


@pytest.mark.parametrize("p, q", [
    (sp(1, {(9,): 1e300}), one(1)),                       # overflows on part of the sample
    (sp(1, {(1,): 1e300, (0,): 1e300}), sp(1, {(0,): 1e-300})),  # overflows everywhere
])
def test_lemma12_never_passes_on_a_non_finite_margin(p, q):
    rep = lemma12_probe(p, q)
    assert rep.verdict != "pass" or np.isfinite(rep.worst_margin)
    if rep.verdict == "inconclusive":
        assert rep.details["note"] == "every sample hit the pole floor or gave a non-finite margin"
        return
    assert rep.verdict == "fail" and np.isfinite(rep.worst_margin)
    f = RationalMatrixFunction(p, q)
    lo = f.eval(np.array([complex(*xy) for xy in rep.witness["point_min"]]))[0, 0].imag
    hi = f.eval(np.array([complex(*xy) for xy in rep.witness["point_max"]]))[0, 0].imag
    assert lo < 0 < hi


def test_lemma12_needs_nonzero_denominator():
    with pytest.raises(ValueError):
        lemma12_probe(one(1), MatrixPoly.zero(1), FAST)


# ----------------------------------------------------------------------
# disk transport


def test_disk_maps_are_inverse():
    w = np.array([0.3 + 0.4j, -0.2 + 0.1j])
    np.testing.assert_allclose(upper_to_disk(disk_to_upper(w)), w, atol=1e-14)
    z = np.array([1.0 + 2.0j])
    np.testing.assert_allclose(disk_to_upper(upper_to_disk(z)), z, atol=1e-14)
    assert disk_to_upper(np.zeros(1))[0] == pytest.approx(1j)


def test_disk_maps_guard_fixed_points():
    with pytest.raises(SingularCayley):
        disk_to_upper(np.array([1.0 + 0j]))
    with pytest.raises(SingularCayley):
        upper_to_disk(np.array([-1j]))


def test_double_cayley_is_contractive_on_corpus():
    rng = np.random.default_rng(3)
    for case in herglotz_cases():
        for _ in range(3):
            w = 0.6 * (rng.standard_normal(case.f.d) + 1j * rng.standard_normal(case.f.d))
            w /= max(1.0, np.abs(w).max() / 0.8)
            s = double_cayley_eval(case.f, w)
            top = np.linalg.svd(s, compute_uv=False)[0]
            assert top <= 1.0 + 1e-8, case.name


def test_double_cayley_rejects_singular_pivot():
    f = RationalMatrixFunction(sp(1, {(0,): -1j}), one(1))  # constant -i makes F + iI = 0
    with pytest.raises(SingularCayley):
        double_cayley_eval(f, np.array([0.2 + 0.1j]))


# ----------------------------------------------------------------------
# configuration plumbing


def test_sample_config_shapes():
    from darlington.checks import real_points, right_points, upper_points

    cfg = SampleConfig(seed=5, count=40)
    rng = np.random.default_rng(cfg.seed)
    pts = upper_points(cfg, rng, 3)
    assert pts.shape == (70, 3)  # 40 interior + 3 stress batches of 10
    assert np.all(pts.imag >= cfg.imag_floor * 1e-3 * 0.999)
    rng = np.random.default_rng(cfg.seed)
    assert np.all(right_points(cfg, rng, 2).real > 0.0)
    rng = np.random.default_rng(cfg.seed)
    assert np.all(real_points(cfg, rng, 2).imag == 0.0)

    lean = SampleConfig(count=40, include_edge_points=False)
    rng = np.random.default_rng(lean.seed)
    assert upper_points(lean, rng, 1).shape == (40, 1)


@pytest.mark.parametrize("field, value", [
    ("count", 0), ("count", -3), ("count", 2.5), ("count", 4.0), ("count", True),
    ("seed", -1), ("seed", 1.5), ("seed", False),
], ids=["0", "-3", "2.5", "4.0", "True", "seed=-1", "seed=1.5", "seed=False"])
def test_sample_config_needs_a_positive_count(field, value):
    # a count or seed that is not an integer (a bool included) would only
    # fail inside numpy, at first use
    message = "%s >= %d, got %r" % (field, field == "count", value)
    with pytest.raises(ValueError, match=re.escape(message)):
        SampleConfig(**{field: value})
    SampleConfig(**{field: np.int64(3)})    # numpy's integers are integers


@pytest.mark.parametrize("radius", [0.0, -1.0, float("inf"), float("nan"), 1e308])
def test_sample_config_needs_a_finite_positive_box(radius):
    with pytest.raises(ValueError, match="box_radius > 0 .*got " + re.escape(repr(radius))):
        SampleConfig(box_radius=radius, imag_floor=1e-300)


@pytest.mark.parametrize("floor", [0.0, -1.0, 10.0, 20.0, float("nan")])
def test_sample_config_needs_a_floor_inside_the_box(floor):
    message = "0 < imag_floor < box_radius (10.0), got %r" % floor
    with pytest.raises(ValueError, match=re.escape(message)):
        SampleConfig(imag_floor=floor)


def test_right_points_are_upper_points_turned():
    from darlington.checks import right_points, upper_points

    for cfg in (SampleConfig(seed=7, count=25), SampleConfig(seed=8, include_edge_points=False)):
        right = right_points(cfg, np.random.default_rng(cfg.seed), 2)
        upper = upper_points(cfg, np.random.default_rng(cfg.seed), 2)
        np.testing.assert_array_equal(right, -1j * upper)


@pytest.mark.parametrize("field", ["psd_slack", "reality_slack", "den_floor"])
@pytest.mark.parametrize("value", [-1e-9, float("inf"), float("nan"), "1e-8"])
def test_tolerances_must_be_finite_and_nonnegative(field, value):
    # an infinite reality_slack would let check_cayley_inner pass -1/(z + i),
    # and a NaN psd_slack would make every margin non-finite
    message = "finite %s >= 0, got %r" % (field, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        Tolerances(**{field: value})
    assert getattr(Tolerances(**{field: 0.0}), field) == 0.0


def test_tolerances_loosen_verdicts():
    # a slightly sunk imaginary part (below the 1e-6 minimum sample height)
    # passes once the slack covers it
    f = RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): -1e-5j}), one(1))
    strict = check_nevanlinna(f, FAST, Tolerances(psd_slack=0.0))
    loose = check_nevanlinna(f, FAST, Tolerances(psd_slack=1e-4))
    assert strict.verdict == "fail" and loose.verdict == "pass"
