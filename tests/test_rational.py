import copy
import pickle
import warnings

import numpy as np
import pytest

from darlington import (
    MatrixPoly,
    NearPole,
    RationalMatrixFunction,
    coprime_probe,
    identity_equal,
    rotate_to_nevanlinna,
    rotate_to_positive_real,
)
from darlington import rational
from darlington.poly import NonFiniteCoefficient
from darlington.rational import _gcd_degree, _line_coeffs, _roots
from corpus import herglotz_cases, ladder_cases, pair_cases


def sp(d, coeffs):
    return MatrixPoly.from_scalar_terms(d, coeffs)


def one(d):
    return MatrixPoly.constant(d, 1.0)


def test_requires_scalar_nonzero_denominator():
    with pytest.raises(ValueError):
        RationalMatrixFunction(one(1), MatrixPoly.zero(1))
    with pytest.raises(Exception):
        RationalMatrixFunction(one(1), MatrixPoly.constant(1, np.eye(2), m=2))


def test_dimensions_must_agree():
    with pytest.raises(Exception):
        RationalMatrixFunction(one(2), one(1))


def test_eval_and_pole_floor():
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0}))  # 1/z
    assert f.eval((2.0,))[0, 0] == pytest.approx(0.5)
    with pytest.raises(NearPole):
        f.eval((1e-15,))


def test_near_pole_names_the_point_and_the_floor_whatever_the_container():
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 2.0, (0,): 2j}))  # 1/(2z + 2i)
    messages = set()
    for z in ([-1j], (-1j,), np.array([-1j])):
        with pytest.raises(NearPole) as info:
            f.eval(z)
        messages.add(str(info.value))
    assert messages == {"denominator magnitude 0 at [(-0-1j)] is below the pole floor 2e-12"}


def test_eval_many_flags_poles():
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0}))
    vals, ok = f.eval_many(np.array([[2.0], [0.0], [-4.0]], dtype=complex))
    assert list(ok) == [True, False, True]
    assert vals[0, 0, 0] == pytest.approx(0.5)
    assert vals[2, 0, 0] == pytest.approx(-0.25)


def test_normalize_leading_denominator_coefficient():
    f = RationalMatrixFunction(sp(1, {(0,): 6.0}), sp(1, {(1,): 3.0, (0,): -3j}))
    g = f.normalize()
    _, lead = g.den.leading_coefficient()
    assert lead[0, 0] == 1.0
    assert identity_equal(f, g)
    again = g.normalize()
    assert again.num == g.num and again.den == g.den


def stack_bytes(f):
    return [(e, a.tobytes()) for p in (f.num, f.den) for e, a in p.terms.items()]


def test_normalize_is_idempotent_bit_for_bit():
    # the leading denominator coefficient comes out exactly 1, so a second
    # normalize divides by 1 and moves nothing
    sources = [lad.function() for lad in ladder_cases(11, range(1, 25), 10)]
    sources += [case.f for case in herglotz_cases()]
    sources += [RationalMatrixFunction(sp(1, {(0,): 2.0 - 1j}), sp(1, {(1,): c, (0,): 1.0}))
                for c in (7.3, -7.3, 7.3 + 2.1j, -0.1j, 3e-200)]
    for f in sources:
        g = f.normalize()
        _, lead = g.den.leading_coefficient()
        assert lead[0, 0].tobytes() == np.complex128(1.0).tobytes()
        assert stack_bytes(g.normalize()) == stack_bytes(g)


def test_normalize_divides_by_a_real_lead_correctly_rounded():
    num = MatrixPoly(1, 2, {(0,): np.array([[0.1, 7.3j], [-2.2, 1e-300]])})
    g = RationalMatrixFunction(num, sp(1, {(1,): 7.3, (0,): 0.7})).normalize()
    want = np.array([[0.1 / 7.3, 1j * (7.3 / 7.3)], [-2.2 / 7.3, 1e-300 / 7.3]])
    assert g.num.terms[(0,)].tobytes() == want.tobytes()
    assert g.den.terms[(0,)][0, 0] == 0.7 / 7.3


def test_identity_equal_cross_multiplies():
    # 1/z and 2/(2z) agree as functions though coefficients differ
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0}))
    h = RationalMatrixFunction(sp(1, {(0,): 2.0}), sp(1, {(1,): 2.0}))
    assert identity_equal(f, h)
    k = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0, (0,): 1e-6}))
    assert not identity_equal(f, k)
    assert not identity_equal(f, RationalMatrixFunction(one(2), sp(2, {(1, 0): 1.0})))


def _random_poly(rng, d, m, terms, top):
    """A sparse polynomial with up to ``terms`` random terms of exponents
    in [0, top] per variable; the zero polynomial when terms is 0."""
    exps = {tuple(int(e) for e in rng.integers(0, top + 1, d)) for _ in range(terms)}
    return MatrixPoly(d, m, {e: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                             for e in exps})


def _gaps(monkeypatch, f, h):
    """max|diff| by identity_equal's array route, and by the polynomial
    route f.num*h.den - h.num*f.den."""
    seen = []
    real_gap = rational._identity_gap

    def spy(diff, operands, rtol):
        seen.append(real_gap(diff, operands, rtol))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(rational, "_identity_gap", spy)
        identity_equal(f, h)
    diff = f.num * h.den - h.num * f.den
    return seen[0][0], float(np.abs(diff._coeffs).max(initial=0.0))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_identity_gap_is_the_polynomial_routes_to_the_bit(monkeypatch, d, m):
    # scalar denominators times matrix numerators, colliding exponents, zero
    # numerators, and pairs equal up to rounding, where the summation order
    # decides the last bits of max|diff|
    rng = np.random.default_rng([d, m])
    for trial in range(30):
        top = 2 if d else 0
        num_f = _random_poly(rng, d, m, [0, 3, 8][trial % 3], top)
        den_f = _random_poly(rng, d, 1, 4, top)
        if trial % 2:
            c = _random_poly(rng, d, 1, 3, 1 if d else 0)
            f, h = RationalMatrixFunction(num_f, den_f), RationalMatrixFunction(num_f * c, den_f * c)
        else:
            num_h = _random_poly(rng, d, m, [5, 0, 2][trial % 3], top)
            f = RationalMatrixFunction(num_f, den_f)
            h = RationalMatrixFunction(num_h, _random_poly(rng, d, 1, 4, top))
        new, old = _gaps(monkeypatch, f, h)
        assert new == old
        assert (new == 0.0) == (old == 0.0)


def test_identity_gap_past_int64_exponent_codes(monkeypatch):
    # per-variable exponents near 2**25 in three variables: the mixed-radix
    # code would need 78 bits, so the groups come from rows, not codes
    rng = np.random.default_rng(5)
    big = 2 ** 25
    rows = rng.integers(big - 2, big + 1, (6, 3))
    assert (int(rows.max()) * 2 + 1) ** 3 > 2 ** 63
    num = MatrixPoly(3, 2, {tuple(map(int, e)): rng.standard_normal((2, 2)) for e in rows})
    den = MatrixPoly(3, 1, {tuple(map(int, e)): rng.standard_normal() for e in rows[:4]})
    c = sp(3, {(1, 0, big): 1.5, (0, 0, 0): -0.5})
    f, h = RationalMatrixFunction(num, den), RationalMatrixFunction(num * c, den * c)
    new, old = _gaps(monkeypatch, f, h)
    assert new == old
    exps = np.array([[big, 0, 1], [0, big, 1], [big, 0, 1], [0, 0, 0]]) * 2 ** 20
    groups = rational._exponent_groups(exps)
    assert groups[0] == groups[2] and len(set(groups.tolist())) == 3


def test_identity_equal_raises_on_an_overflowing_cross_product():
    f = RationalMatrixFunction(sp(1, {(1,): 1e200, (0,): 1.0}), sp(1, {(0,): 1.0}))
    h = RationalMatrixFunction(sp(1, {(0,): 1.0}), sp(1, {(2,): 1e200}))
    with pytest.raises(NonFiniteCoefficient, match=r"\(3,\)"):
        identity_equal(f, h)
    with pytest.raises(NonFiniteCoefficient), np.errstate(over="ignore", invalid="ignore"):
        f.num * h.den - h.num * f.den  # as the polynomial route does
    # finite sides whose difference overflows raise too
    g = RationalMatrixFunction(sp(1, {(0,): 1.5e308}), one(1))
    k = RationalMatrixFunction(sp(1, {(0,): -1.5e308}), one(1))
    with pytest.raises(NonFiniteCoefficient, match=r"\(0,\)"):
        identity_equal(g, k)


def test_rotations_are_inverse_and_map_frames():
    # f(z) = -1/(z+i) has nonnegative imaginary part above the real axis;
    # its rotation g(s) = -i f(is) = 1/(s+1) has nonnegative real part for Re s > 0
    f = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))
    g = rotate_to_positive_real(f)
    np.testing.assert_allclose(g.eval((1.0,))[0, 0], 0.5, atol=1e-14)
    s = 0.3 + 2.0j
    np.testing.assert_allclose(g.eval((s,))[0, 0], -1j * f.eval((1j * s,))[0, 0], rtol=1e-12)
    back = rotate_to_nevanlinna(g)
    assert identity_equal(back, f)


def test_rotation_roundtrip_matrix():
    rng = np.random.default_rng(1)
    num = MatrixPoly(2, 2, {
        (1, 0): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        (0, 1): rng.standard_normal((2, 2)),
        (0, 0): rng.standard_normal((2, 2)),
    })
    den = sp(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 1j})
    f = RationalMatrixFunction(num, den)
    assert identity_equal(rotate_to_positive_real(rotate_to_nevanlinna(f)), f)
    assert identity_equal(rotate_to_nevanlinna(rotate_to_positive_real(f)), f)


def test_coprime_probe_finds_planted_factor():
    # z(z+1) / z shares the factor z
    f = RationalMatrixFunction(sp(1, {(2,): 1.0, (1,): 1.0}), sp(1, {(1,): 1.0}))
    v = coprime_probe(f)
    assert v.verdict == "common-factor-found"
    assert all(g >= 1 for g in v.gcd_degree_per_line)


def test_coprime_probe_finds_two_variable_factor():
    num = sp(2, {(2, 0): 1.0, (0, 0): 1.0}) * sp(2, {(1, 0): 1.0, (0, 1): 1.0})
    den = sp(2, {(2, 0): 1.0, (0, 0): 1.0})
    v = coprime_probe(RationalMatrixFunction(num, den))
    assert v.verdict == "common-factor-found"


def test_coprime_probe_clears_coprime_pair():
    f = RationalMatrixFunction(sp(2, {(1, 0): 1.0}), sp(2, {(0, 1): 1.0}))  # z1/z2
    assert coprime_probe(f).verdict == "coprime-probable"


def test_coprime_probe_deterministic():
    f = RationalMatrixFunction(sp(1, {(2,): 1.0, (1,): 1.0}), sp(1, {(1,): 1.0}))
    a = coprime_probe(f, seed=5)
    b = coprime_probe(f, seed=5)
    assert a == b
    assert a.to_dict()["seed"] == 5


def test_coprime_probe_rejects_fewer_than_one_line():
    f = RationalMatrixFunction(sp(1, {(1,): 1.0}), sp(1, {(1,): 1.0, (0,): 1.0}))  # z/(z+1)
    for lines in (0, -1):
        with pytest.raises(ValueError, match="got %d" % lines):
            coprime_probe(f, lines=lines)


def test_coprime_probe_skips_zero_entries_of_a_matrix_numerator():
    h = sp(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0})  # z1 + z2 + 1
    a, b = sp(2, {(1, 0): 1.0, (0, 0): 2.0}), sp(2, {(0, 1): 1.0, (0, 0): -3.0})
    den = h * sp(2, {(1, 0): 1.0, (0, 1): -1.0, (0, 0): 2.0})

    def diag(p, q):
        return (p * MatrixPoly.constant(2, np.diag([1.0, 0.0]))
                + q * MatrixPoly.constant(2, np.diag([0.0, 1.0])))

    for p, q, verdict in ((h * a, h * b, "common-factor-found"),
                          (h * a, b, "inconclusive"),
                          (a, b, "coprime-probable")):
        v = coprime_probe(RationalMatrixFunction(diag(p, q), den))
        assert v.verdict == verdict
        assert len(v.gcd_degree_per_line) == 8


@pytest.mark.parametrize("big", [1e15, 1e20])
def test_coprime_probe_scale_disparate_entries(big):
    # each scalarization is judged against its own largest coefficient: the
    # constant off-diagonal entries must not look degenerate beside big * z
    num = MatrixPoly(1, 2, {(1,): big * np.eye(2), (0,): np.ones((2, 2))})
    v = coprime_probe(RationalMatrixFunction(num, sp(1, {(1,): 1.0, (0,): 1.0})))
    assert v.verdict == "coprime-probable"


def test_coprime_probe_zero_numerator():
    zero = MatrixPoly.zero(2, 2)
    assert coprime_probe(RationalMatrixFunction(zero, sp(2, {(1, 0): 1.0, (0, 0): 1.0}))
                         ).verdict == "common-factor-found"
    assert coprime_probe(RationalMatrixFunction(zero, sp(2, {(0, 0): 3.0}))
                         ).verdict == "coprime-probable"


def test_coprime_probe_clears_every_seeded_ladder():
    for lad in ladder_cases(0, range(1, 17), 3):
        assert coprime_probe(lad.function()).verdict == "coprime-probable", lad


def _line_probe_reference(f, lines=8, seed=0xDA71):
    """The verdict of the random-line restriction in any number of
    variables, with the same random draws in the same order: the compression
    eta first, then a and b of each line, retried while a restriction
    vanishes.  The reference for the exact one-variable probe."""
    num, den, d, m = f.num, f.den, f.d, f.m
    rng = np.random.default_rng(seed)
    weights = [np.zeros(m * m)]
    if not num.is_zero():
        stack = np.array(list(num.terms.values()))
        weights = list(np.eye(m * m)[stack.any(axis=0).ravel()])
        for _ in range(20):
            eta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if np.any(eta @ stack @ eta.conj()):
                weights.append(np.outer(eta, eta.conj()).ravel())
                break
    weights = np.array(weights)
    n = max(num.total_degree(), den.total_degree()) + 1
    degrees = []
    for _ in range(lines):
        for _ in range(20):
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            qv = _line_coeffs(den, a, b, n)[:, 0, 0]
            svs = _line_coeffs(num, a, b, n).reshape(n, m * m) @ weights.T
            if np.abs(qv).max() > 0 and (num.is_zero() or np.abs(svs).max(axis=0).all()):
                break
        degrees.append([_gcd_degree(sv, qv) for sv in svs.T])
    degrees = np.array(degrees).T
    if np.all(degrees >= 1):
        return "common-factor-found"
    if np.any(degrees == 0, axis=1).all():
        return "coprime-probable"
    return "inconclusive"


def test_one_variable_probe_matches_the_line_reference():
    fs = [lad.function() for s in range(5) for lad in ladder_cases(s, range(1, 17), 3)]
    fs += [c.f for c in herglotz_cases() if c.f.d == 1]
    fs += [RationalMatrixFunction(c.p, c.q) for c in pair_cases()
           if c.p.d == 1 and not c.q.is_zero()]
    assert len(fs) > 250
    for f in fs:
        assert coprime_probe(f).verdict == _line_probe_reference(f), f


def test_one_variable_probe_is_one_exact_restriction():
    h = sp(1, {(1,): 1.0, (0,): 2.0})  # z + 2
    a, b = sp(1, {(1,): 1.0, (0,): -3.0}), sp(1, {(2,): 1.0, (0,): 1.0})

    def diag(p, q):
        return (p * MatrixPoly.constant(1, np.diag([1.0, 0.0]))
                + q * MatrixPoly.constant(1, np.diag([0.0, 1.0])))

    cases = [(RationalMatrixFunction(h * a, h * b), "common-factor-found", 1),
             (RationalMatrixFunction(a, b), "coprime-probable", 0),
             (RationalMatrixFunction(diag(h * a, h * b), h * b), "common-factor-found", 1),
             (RationalMatrixFunction(diag(h * a, b), h), "inconclusive", 0),
             (RationalMatrixFunction(MatrixPoly.zero(1, 2), b), "common-factor-found", 2)]
    for f, verdict, degree in cases:
        for lines in (1, 8):
            for seed in range(10):
                v = coprime_probe(f, lines=lines, seed=seed)
                assert (v.verdict, v.lines_used, v.gcd_degree_per_line, v.seed) == (
                    verdict, 1, (degree,), seed), (f, lines, seed)


def test_coprime_probe_power_on_planted_univariate_factors():
    # h p / h q with Gaussian coefficients: the 8-line probe let one line
    # overrule the rest and called 86 of these 200 coprime (the default
    # seed's 8th line, |b| = 0.185, alone said gcd 0 on 72 of them)
    rng = np.random.default_rng(2024)

    def gaussian(deg):
        return sp(1, {(k,): c for k, c in enumerate(rng.standard_normal(deg + 1))})

    found = 0
    for _ in range(200):
        h = gaussian(int(rng.integers(1, 4)))
        p, q = gaussian(int(rng.integers(0, 5))), gaussian(int(rng.integers(0, 5)))
        v = coprime_probe(RationalMatrixFunction(h * p, h * q))
        found += v.verdict == "common-factor-found"
    assert found >= 190, found


def _restrict_reference(p, a, b):
    """Coefficients in t of p on the line z = a + t b, one convolution per
    factor of every term: the reference for the FFT restriction."""
    out = np.zeros((max(p.total_degree(), 0) + 1, p.m, p.m), dtype=np.complex128)
    for e, arr in p.ordered_terms():
        mono = np.ones(1, dtype=np.complex128)
        for k, ek in enumerate(e):
            lin = np.array([a[k], b[k]], dtype=np.complex128)
            for _ in range(ek):
                mono = np.convolve(mono, lin)
        out[: len(mono)] += mono[:, None, None] * arr
    return out


def test_line_coefficients_match_the_convolution_reference():
    rng = np.random.default_rng(7)
    polys = [MatrixPoly.zero(2, 2), MatrixPoly.constant(3, 2.5 - 1j),
             MatrixPoly.constant(1, rng.standard_normal((3, 3)))]
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            exps = {tuple(rng.integers(0, 3, d)) for _ in range(6)}
            polys.append(MatrixPoly(d, m, {e: rng.standard_normal((m, m))
                                           + 1j * rng.standard_normal((m, m)) for e in exps}))
    for p in polys:
        a = rng.standard_normal(p.d) + 1j * rng.standard_normal(p.d)
        b = rng.standard_normal(p.d) + 1j * rng.standard_normal(p.d)
        want = _restrict_reference(p, a, b)
        tol = 1e-12 * max(np.abs(want).max(), 1e-300)
        for extra in (0, 3):
            got = _line_coeffs(p, a, b, len(want) + extra)
            assert got.shape == (len(want) + extra, p.m, p.m)
            assert np.abs(got[: len(want)] - want).max() <= tol, p
            assert np.abs(got[len(want):]).max(initial=0.0) <= tol, p


def test_roots_are_numpys_on_the_reversed_coefficients():
    # top zeros, zero constants and complex coefficients: the guard keeps
    # every nonzero top here, so the roots are np.roots's to the bit
    rng = np.random.default_rng(34)
    for _ in range(200):
        u = rng.standard_normal(rng.integers(1, 9))
        if rng.random() < 0.5:
            u = u + 1j * rng.standard_normal(len(u))
        u[rng.random(len(u)) < 0.25] = 0.0
        u = np.concatenate((u, np.zeros(rng.integers(0, 3))))
        want = np.roots(u[::-1]).astype(np.complex128)
        got = _roots(u)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), u


def test_roots_drop_a_top_coefficient_that_would_overflow():
    # 1/5e-324 overflows, so 5e-324 z^2 + 1 leaves the constant: no root,
    # and no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _roots(np.array([1.0, 0.0, 5e-324])).shape == (0,)
        assert _roots(np.array([1.0, 1.0, 1e-320])).tolist() == [-1.0]


def test_roots_of_a_real_input_are_complex():
    got = _roots(np.array([2.0, -3.0, 1.0]))
    assert got.dtype == np.complex128
    assert sorted(got.tolist(), key=abs) == pytest.approx([1.0, 2.0])


def test_immutable():
    f = RationalMatrixFunction(one(1), one(1))
    with pytest.raises(AttributeError):
        f.num = one(1)


def test_copy_and_pickle():
    f = RationalMatrixFunction(sp(1, {(1,): 2.0}), sp(1, {(1,): 1.0, (0,): 1j})).normalize()
    f.eval_many(np.ones((1, 1)))
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert (g.num, g.den) == (f.num, f.den)
    for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g.num._plan is None and g.den._plan is None
