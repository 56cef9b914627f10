"""Sampling-based class membership, stability falsification, and the probes."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from darlington import (
    MatrixPoly,
    RationalMatrixFunction,
    SampleConfig,
    SingularCayley,
    Tolerances,
    check_cayley_inner,
    check_nevanlinna,
    check_positive_real,
    check_real_stable,
    check_stable,
    disk_to_upper,
    double_cayley_eval,
    lemma11_probe,
    lemma12_probe,
    pencil_probe,
    rotate_to_positive_real,
    upper_to_disk,
)
from darlington.checks import upper_points
from corpus import herglotz_cases, pair_cases


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


def test_real_stable_delegates_to_zero_hunt():
    rep = check_real_stable(sp(1, {(2,): 1.0, (0,): 1.0}), FAST)
    assert rep.verdict == "fail"
    assert "abs_value" in rep.witness


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


def descent_reference(p, cfg):
    """check_stable's zero hunt as one descent per polynomial, with the
    gradient from differentiate(): the loop the batched descent replaced,
    kept as its reference.  Returns the best point and value."""
    pts = upper_points(cfg, np.random.default_rng(cfg.seed), p.d)
    Z = pts[np.argsort(np.abs(p.evaluate_many(pts)[:, 0, 0]))[:20]]
    grads = [p.differentiate(k) for k in range(p.d)]
    vals = p.evaluate_many(Z)[:, 0, 0]
    for _ in range(50):
        G = np.stack([g.evaluate_many(Z)[:, 0, 0] for g in grads], axis=1)
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
    # rounds differently: verdicts agree exactly, points and values to 1e-9
    polys = []
    for case in pair_cases():
        p, q, d = case.p, case.q, case.p.d
        polys += [p + q.scaled(1j),
                  p.append_variable() + MatrixPoly.variable(d + 1, d) * q.append_variable(),
                  p.scaled(0.6) + q.scaled(-0.8)]
    for p in polys:
        rep = check_stable(p, FAST)
        point, value = descent_reference(p, FAST)
        assert (value < 1e-10 * p.max_coeff_magnitude()) == (rep.verdict == "fail")
        if rep.verdict == "fail":
            got = np.array([complex(*xy) for xy in rep.witness["point"]])
            np.testing.assert_allclose(got, point, rtol=0, atol=1e-9)
        else:
            assert rep.details["refined_abs_value"] == pytest.approx(value, rel=1e-9)


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


def test_tolerances_loosen_verdicts():
    # a slightly sunk imaginary part (below the 1e-6 minimum sample height)
    # passes once the slack covers it
    f = RationalMatrixFunction(sp(1, {(1,): 1.0, (0,): -1e-5j}), one(1))
    strict = check_nevanlinna(f, FAST, Tolerances(psd_slack=0.0))
    loose = check_nevanlinna(f, FAST, Tolerances(psd_slack=1e-4))
    assert strict.verdict == "fail" and loose.verdict == "pass"
