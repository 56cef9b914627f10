"""Lift to one more variable, and the one-variable lossless embedding."""

import re
import warnings

import numpy as np
import pytest

from darlington import (
    DimensionMismatch,
    MatrixPoly,
    RationalMatrixFunction,
    SplitFailed,
    check_cayley_inner,
    check_positive_real,
    identity_equal,
    lift,
    realize_1d,
    restrict_at_i,
    rotate_to_nevanlinna,
    rotate_to_positive_real,
)
from darlington import realization
from darlington.lift import decompose
from darlington.poly import NonFiniteCoefficient
from darlington.rational import _coeffs, _poly1
from darlington.realization import SPLIT_IDENTITY_RTOL, ReconstructionMismatch, _require_identity
from corpus import herglotz_cases, herglotz_function, ladder_cases, signed_zero_poly


def sp(d, coeffs):
    return MatrixPoly.from_scalar_terms(d, coeffs)


def one(d):
    return MatrixPoly.constant(d, 1.0)


def pr(num_coeffs, den_coeffs):
    return RationalMatrixFunction(sp(1, num_coeffs), sp(1, den_coeffs))


# ----------------------------------------------------------------------
# decomposition


def test_decomposition_structure_is_bitwise():
    for case in herglotz_cases():
        pieces = decompose(case.f)
        assert pieces.is_structured(), case.name


def test_decomposition_reassembles():
    for case in herglotz_cases():
        g = case.f.normalize()
        pieces = decompose(case.f)
        num = pieces.p1.scaled(1j) + pieces.p2
        den = pieces.q1.scaled(1j) + pieces.q2
        scale = max(g.num.max_coeff_magnitude(), g.den.max_coeff_magnitude())
        assert (num - g.num).max_coeff_magnitude() <= 1e-12 * scale, case.name
        assert (den - g.den).max_coeff_magnitude() <= 1e-12 * scale, case.name


def test_decomposition_of_constant_i():
    # f = i: numerator halves are p1 = 1, p2 = 0
    f = RationalMatrixFunction(sp(1, {(0,): 1j}), one(1))
    pieces = decompose(f)
    assert pieces.p1 == one(1)
    assert pieces.p2.is_zero()
    assert pieces.q1.is_zero()
    assert pieces.q2 == one(1)


# ----------------------------------------------------------------------
# lift


def test_lift_adds_a_variable_and_restricts_back():
    for case in herglotz_cases():
        L = lift(case.f)
        assert L.lifted.d == case.f.d + 1
        assert L.lifted.m == case.f.m
        assert identity_equal(restrict_at_i(L.lifted), L.input), case.name


def test_lift_restriction_pointwise():
    rng = np.random.default_rng(9)
    for case in herglotz_cases():
        L = lift(case.f)
        for _ in range(4):
            z = tuple(rng.standard_normal(case.f.d) + 1j * np.abs(rng.standard_normal(case.f.d)))
            want = L.input.eval(z)
            got = L.lifted.eval(z + (1j,))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_lift_of_constant_i_is_new_variable():
    f = RationalMatrixFunction(sp(1, {(0,): 1j}), one(1))
    L = lift(f)
    z_new = RationalMatrixFunction(sp(2, {(0, 1): 1.0}), one(2))
    assert identity_equal(L.lifted, z_new)


def test_lift_of_reciprocal_sum_closes_exactly():
    # -1/(z1 + i) lifts to -1/(z1 + z2): the added variable replaces i
    f = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))
    L = lift(f)
    want = RationalMatrixFunction(sp(2, {(0, 0): -1.0}), sp(2, {(1, 0): 1.0, (0, 1): 1.0}))
    assert identity_equal(L.lifted, want)
    assert L.lifted.num == want.num and L.lifted.den == want.den


def test_lift_lands_in_boundary_class():
    for case in herglotz_cases():
        rep = check_cayley_inner(lift(case.f).lifted)
        assert rep.verdict == "pass", "%s: %r" % (case.name, rep.witness)


# The MatrixPoly arithmetic that the lift's stack code replaced, kept as its
# bitwise reference.

def arithmetic_halves(p):
    return (p - p.bar_reflect()).scaled(-0.5j), (p + p.bar_reflect()).scaled(0.5)


def arithmetic_pencil(hi, lo):
    return MatrixPoly.variable(hi.d + 1, hi.d) * hi.append_variable() + lo.append_variable()


def assert_same_poly(got, want):
    """Same term order and the same coefficient bits, signs of zero included."""
    assert (got.d, got.m, list(got.terms)) == (want.d, want.m, list(want.terms))
    for e, a in want.terms.items():
        assert np.array_equal(got.terms[e].view(np.uint64), a.view(np.uint64)), e


def signed_zero_functions():
    """Quotients of small-integer polynomials with -0.0 in the real and the
    imaginary parts, whose halves and pencil rows cancel to exact zeros."""
    rng = np.random.default_rng(20)
    fs = [RationalMatrixFunction(sp(1, {(1,): complex(2.0, -0.0), (0,): complex(-0.0, 1.0)}),
                                 sp(1, {(1,): complex(1.0, -0.0), (0,): complex(-0.0, 1.0)}))]
    while len(fs) < 40:
        d, m = int(rng.integers(1, 4)), int(rng.choice([1, 2, 4]))
        den = signed_zero_poly(rng, d, 1, 4)
        if not den.is_zero():
            fs.append(RationalMatrixFunction(signed_zero_poly(rng, d, m, 5), den))
    return fs


def lift_inputs():
    rng = np.random.default_rng(21)
    fs = [case.f for case in herglotz_cases()]
    fs += [herglotz_function(rng, d, m, poles) for m in (1, 2, 4) for d in (1, 2, 3)
           for poles in (2, 3)]
    return fs + signed_zero_functions()


def test_lift_stacks_are_bit_identical_to_polynomial_arithmetic():
    fs = lift_inputs()
    zeros = np.concatenate([np.ravel(p._coeffs) for f in fs for p in (f.num, f.den)])
    assert np.signbit(zeros[zeros.imag == 0].imag).any()
    assert np.signbit(zeros[zeros.real == 0].real).any()
    for f in fs:
        g = f.normalize()
        want = arithmetic_halves(g.num) + arithmetic_halves(g.den)
        L = lift(f)
        for pieces in (decompose(f), L.pieces):
            for got, ref in zip((pieces.p1, pieces.p2, pieces.q1, pieces.q2), want):
                assert_same_poly(got, ref)
        ref = RationalMatrixFunction(arithmetic_pencil(*want[:2]),
                                     arithmetic_pencil(*want[2:])).normalize()
        assert_same_poly(L.lifted.num, ref.num)
        assert_same_poly(L.lifted.den, ref.den)


def test_lift_needs_no_matrix_poly_arithmetic(monkeypatch):
    fs = lift_inputs()

    def refuse(*args):
        raise AssertionError("MatrixPoly arithmetic inside the lift")

    for name in ("__init__", "__add__", "__mul__", "__neg__", "scaled", "bar_reflect",
                 "append_variable"):
        monkeypatch.setattr(MatrixPoly, name, refuse)
    for f in fs:
        lift(f)


def test_lift_normalizes_input_and_pencil_once_each(monkeypatch):
    normalize, calls = RationalMatrixFunction.normalize, []

    def counted(self):
        calls.append(self.d)
        return normalize(self)

    monkeypatch.setattr(RationalMatrixFunction, "normalize", counted)
    for case in herglotz_cases():
        calls.clear()
        lift(case.f)
        assert calls == [case.f.d, case.f.d + 1], case.name


# ----------------------------------------------------------------------
# one-variable realization


def test_realize_reciprocal_shift():
    # 1/(s+1): all four block entries are committed values
    real = realize_1d(pr({(0,): 1.0}, {(1,): 1.0, (0,): 1.0}))
    assert real.variant == "lft"
    assert real.kappa == pytest.approx(1.0)
    assert real.r == 1
    assert real.a.num.is_zero()
    assert identity_equal(real.d, pr({(1,): 1.0}, {(0,): 1.0}))
    assert identity_equal(real.b, pr({(0,): 1.0}, {(0,): 1.0}))
    assert identity_equal(real.c, pr({(0,): -1.0}, {(0,): 1.0}))


def test_realize_biquadratic():
    # (s^2+s+1)/(s^2+2s+1): coupling constant 1/4 and sqrt(2) factors
    real = realize_1d(pr({(2,): 1.0, (1,): 1.0, (0,): 1.0}, {(2,): 1.0, (1,): 2.0, (0,): 1.0}))
    assert real.variant == "lft"
    assert real.kappa == pytest.approx(0.25)
    half_inv = {(1,): 2.0}  # denominator 2s
    rt = np.sqrt(2.0)
    assert identity_equal(real.a, pr({(2,): 1.0, (0,): 1.0}, half_inv), rtol=1e-9)
    assert identity_equal(real.d, pr({(2,): 1.0, (0,): 1.0}, half_inv), rtol=1e-9)
    assert identity_equal(real.b, pr({(2,): 1.0, (1,): rt, (0,): 1.0}, half_inv), rtol=1e-9)
    assert identity_equal(real.c, pr({(2,): 1.0, (1,): -rt, (0,): 1.0}, half_inv), rtol=1e-9)


def test_realize_closure_identity():
    cases = [
        pr({(0,): 1.0}, {(1,): 1.0, (0,): 1.0}),
        pr({(2,): 1.0, (1,): 1.0, (0,): 1.0}, {(2,): 1.0, (1,): 2.0, (0,): 1.0}),
        pr({(1,): 2.0, (0,): 1.0}, {(1,): 1.0, (0,): 1.0}),
        pr({(2,): 1.0, (1,): 3.0, (0,): 1.0}, {(2,): 2.0, (1,): 1.0, (0,): 2.0}),
    ]
    for f in cases:
        real = realize_1d(f)
        assert identity_equal(real.closure(), f.normalize(), rtol=1e-7)


def test_realize_block_is_positive_real():
    real = realize_1d(pr({(2,): 1.0, (1,): 1.0, (0,): 1.0}, {(2,): 1.0, (1,): 2.0, (0,): 1.0}))
    rep = check_positive_real(real.block())
    assert rep.verdict == "pass", rep.witness


def test_realize_entries_share_one_denominator():
    # the block is over a.den = qt1 / lead(qt1), not a product of four denominators
    real = realize_1d(pr({(2,): 1.0, (1,): 1.0, (0,): 1.0}, {(2,): 1.0, (1,): 2.0, (0,): 1.0}))
    for g in (real.b, real.c, real.d):
        assert g.den == real.a.den
    qt1 = decompose(rotate_to_nevanlinna(real.source)).q1
    block = real.block()
    assert block.den.total_degree() == qt1.total_degree() == 1
    a00 = MatrixPoly(1, 1, {e: c[0, 0] for e, c in block.num.terms.items()})
    assert identity_equal(RationalMatrixFunction(a00, block.den), real.a)


def test_realize_imaginary_axis_transmission_zero():
    # (s^2+1)/(s^2+s+1) has Re f(i) = 0: the coupling numerator has a double
    # root pair on the imaginary axis, which h must take once as +-i
    real = realize_1d(pr({(2,): 1.0, (0,): 1.0}, {(2,): 1.0, (1,): 1.0, (0,): 1.0}))
    assert real.variant == "lft"
    assert real.kappa == pytest.approx(1.0)
    assert identity_equal(real.b, pr({(2,): 1.0, (0,): 1.0}, {(1,): 1.0}), rtol=1e-9)
    assert identity_equal(real.closure(), real.source, rtol=1e-7)
    assert check_positive_real(real.block()).verdict == "pass"


def test_realize_lossless_input_is_trivial():
    # s + 1/s is already lossless: the load decouples
    real = realize_1d(pr({(2,): 1.0, (0,): 1.0}, {(1,): 1.0}))
    assert real.variant == "lossless-trivial"
    assert real.kappa is None
    assert identity_equal(real.a, real.source)
    assert identity_equal(real.closure(), real.source)


def test_realize_affine_residual():
    # (s+1)/s: real denominator, load enters affinely as a + residual
    real = realize_1d(pr({(1,): 1.0, (0,): 1.0}, {(1,): 1.0}))
    assert real.variant == "affine-residual"
    assert identity_equal(real.a, pr({(0,): 1.0}, {(1,): 1.0}))
    assert identity_equal(real.residual, pr({(0,): 1.0}, {(0,): 1.0}))
    assert identity_equal(real.closure(), real.source)


def test_realize_constant():
    real = realize_1d(pr({(0,): 2.0}, {(0,): 1.0}))
    assert identity_equal(real.closure(), real.source)


def test_realize_degenerate_coupling():
    # f = s/(s+1) + 1/(s+1) = 1: pencil route with identically zero coupling
    real = realize_1d(pr({(1,): 1.0, (0,): 1.0}, {(1,): 1.0, (0,): 1.0}))
    assert identity_equal(real.closure(), real.source)


def real_rotated_herglotz_cases():
    """The scalar one-variable corpus functions that have real coefficients
    once rotated to the right-half-plane frame."""
    for case in herglotz_cases():
        if case.f.m == 1 and case.f.d == 1:
            g = rotate_to_positive_real(case.f)
            if g.num.has_real_coeffs() and g.den.has_real_coeffs():
                yield case.name, g


def test_realize_round_trips_through_rotation():
    # the upper-half-plane corpus, moved to the right-half-plane frame
    for name, g in real_rotated_herglotz_cases():
        real = realize_1d(g)
        assert identity_equal(real.closure(), g.normalize(), rtol=1e-7), name


def test_split_roots_never_need_the_overflow_guard(monkeypatch):
    # after the split's 1e-12 max|v| trim no coefficient ratio reaches 1e12,
    # so bare np.roots gives the same entries; the split looks _roots up in
    # realization's namespace
    def entries(real):
        parts = [real.a, real.b, real.c, real.d] + ([real.residual] if real.residual else [])
        return [(g.num._coeffs.tobytes(), g.den._coeffs.tobytes()) for g in parts] + [real.kappa]

    def realized(f):
        try:
            return entries(realize_1d(f))
        except SplitFailed as exc:
            return str(exc)

    cases = [lad.function() for lad in ladder_cases(34, range(1, 17), 3)]
    guarded = [realized(f) for f in cases]
    monkeypatch.setattr(realization, "_roots", lambda u: np.roots(u[::-1]))
    assert [realized(f) for f in cases] == guarded


def lift_halves(source):
    """The pencil halves by the lift: decompose in the upper half-plane
    frame, then rotate each half back with its own phase."""
    pieces = decompose(rotate_to_nevanlinna(source))
    halves = (pieces.p1.scale_variables([1j]).scaled(-1j),
              pieces.p2.scale_variables([1j]).scaled(-1.0),
              pieces.q1.scale_variables([1j]),
              pieces.q2.scale_variables([1j]).scaled(-1j))
    return [_coeffs(h)[:, 0, 0] for h in halves]


def parity_parts(source):
    """pt1, pt2, qt1, qt2: the parts of num and den whose degrees have the
    parity of deg den, and the other parts."""
    num, den = (_coeffs(p)[:, 0, 0].real for p in (source.num, source.den))
    same = [np.where(np.arange(len(u)) % 2 == (len(den) - 1) % 2, u, 0.0) for u in (num, den)]
    return [same[0], num - same[0], den - same[1], same[1]]


def test_parity_parts_are_the_lift_halves():
    # the realization takes the parity parts directly; the lift's halves,
    # rotated back, are the same arrays bit for bit, all four times one
    # unit constant, which every ratio in the realization cancels
    sources = [("order %d ladder %d" % (len(lad.branches), k), lad.function().normalize())
               for k, lad in enumerate(ladder_cases(11, range(1, 25), 10))]
    sources += [(name, g.normalize()) for name, g in real_rotated_herglotz_cases()]
    assert len(sources) > 240
    for name, source in sources:
        parts = parity_parts(source)
        halves = [np.pad(h, (0, len(u) - len(h))) for h, u in zip(lift_halves(source), parts)]
        units = [c for c in (1.0, -1.0, 1j, -1j)
                 if all(np.array_equal(h, c * u) for h, u in zip(halves, parts))]
        assert len(units) == 1, name


def test_array_identity_agrees_with_identity_equal():
    for lad in ladder_cases(11, range(1, 17), 3):
        real = realize_1d(lad.function())
        closure, source = real.closure(), real.source
        off = RationalMatrixFunction(source.num.scaled(1.0 + 1e-6), source.den)
        for h, want in ((source, True), (off, False)):
            arrays = [_coeffs(p)[:, 0, 0] for p in (closure.num, closure.den, h.num, h.den)]
            try:
                _require_identity(*arrays, ReconstructionMismatch, "closure", 0)
                holds = True
            except ReconstructionMismatch:
                holds = False
            assert holds == identity_equal(closure, h, SPLIT_IDENTITY_RTOL) == want


def test_realize_needs_no_matrix_poly_arithmetic(monkeypatch):
    f = ladder_cases(11, [12], 1)[0].function()

    def refuse(*args):
        raise AssertionError("MatrixPoly arithmetic inside the realization")

    for name in ("__init__", "__mul__", "__add__", "scale_variables"):
        monkeypatch.setattr(MatrixPoly, name, refuse)
    real = realize_1d(f)
    assert real.variant == "lft"
    real.closure()
    real.block()


def test_realize_reads_only_the_source_into_arrays(monkeypatch):
    # each variant reads the source's numerator and denominator into arrays
    # once; the loop it checks is built from its own arrays, and closure()
    # wraps that loop without reading anything back
    scalar, calls = realization._scalar, []
    monkeypatch.setattr(realization, "_scalar", lambda p: calls.append(p) or scalar(p))
    cases = {"lossless-trivial": pr({(2,): 1.0, (0,): 1.0}, {(1,): 1.0}),
             "affine-residual": pr({(1,): 1.0, (0,): 1.0}, {(1,): 1.0}),
             "lft": ladder_cases(11, [6], 1)[0].function()}
    for variant, f in cases.items():
        calls.clear()
        real = realize_1d(f)
        assert real.variant == variant
        assert len(calls) == 2 and calls[0] is real.source.num and calls[1] is real.source.den
        closure = real.closure()
        assert len(calls) == 2
        for p, u in zip((closure.num, closure.den), real.loop):
            assert_same_poly(p, term_dict_poly1(u))
        _require_identity(*real.loop, scalar(real.source.num), scalar(real.source.den),
                          ReconstructionMismatch, "closure", 0)


# The term dicts that the realization's stacks replaced, kept as their
# bitwise reference.

def term_dict_poly1(u):
    return MatrixPoly.from_scalar_terms(1, {(k,): c for k, c in enumerate(u)})


def term_dict_block(real):
    terms = {}
    for k, g in enumerate((real.a, real.b, real.c, real.d)):
        for e, arr in g.num.terms.items():
            terms.setdefault(e, np.zeros((2, 2), dtype=np.complex128))
            terms[e][divmod(k, 2)] = arr[0, 0]
    return MatrixPoly(1, 2, terms)


def term_loop_coeffs(p):
    out = np.zeros((max(p.total_degree(), 0) + 1, p.m, p.m), dtype=np.complex128)
    for e, arr in p.terms.items():
        out[e[0]] = arr
    return out


def test_realization_stacks_are_bit_identical_to_term_dicts():
    sources = [lad.function() for lad in ladder_cases(12, range(1, 25), 3)]
    sources += [g for _, g in real_rotated_herglotz_cases()]
    sources += [pr({(2,): 1.0, (0,): 3.0}, {(1,): 2.0}),        # lossless-trivial
                pr({(1,): 1.0, (0,): 2.0}, {(0,): 4.0}),        # affine-residual
                pr({(0,): 1.0, (1,): 2.0, (2,): 2.0}, {(2,): 1.0, (0,): 1.0, (1,): 1.0})]
    variants = []
    for f in sources:
        try:
            real = realize_1d(f)
        except SplitFailed:
            continue   # realize_1d still refuses some valid ladders above order 20
        variants.append(real.variant)
        assert_same_poly(real.block().num, term_dict_block(real))
        for u in real.loop:
            assert_same_poly(_poly1(u), term_dict_poly1(u))
        for g in (real.a, real.b, real.c, real.d, real.block(), real.source):
            for p in (g.num, g.den):
                assert np.array_equal(_coeffs(p).view(np.uint64),
                                      term_loop_coeffs(p).view(np.uint64))
    assert len(variants) > 70
    assert set(variants) == {"lft", "affine-residual", "lossless-trivial"}


@pytest.mark.parametrize("u", [[], [0.0], [-0.0, 2.0, 0.0], [1.5, -0.0, -3.0],
                               np.array([complex(-0.0, -0.0), complex(1.0, -0.0),
                                         complex(-0.0, 2.0), 0.0])])
def test_poly1_is_bit_identical_to_from_scalar_terms(u):
    # _poly1([]) and _poly1([0.0]) are the zero polynomial in one variable
    assert_same_poly(_poly1(u), term_dict_poly1(u))
    assert _poly1(u).is_zero() == (not np.count_nonzero(u))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_poly1_names_a_non_finite_coefficient(bad):
    u = [1.0, 0.0, bad, 2.0]
    with pytest.raises(NonFiniteCoefficient) as ref:
        term_dict_poly1(u)
    with pytest.raises(NonFiniteCoefficient, match=r"^non-finite coefficient at \(2,\)$") as got:
        _poly1(u)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("c", [1e-13, 1e-20])
def test_realize_small_scale_input(c):
    # c/(s+1): the coupling c is small but not zero, and is kept
    real = realize_1d(pr({(0,): c}, {(1,): 1.0, (0,): 1.0}))
    assert real.kappa == pytest.approx(c, rel=1e-12)
    s = np.array([[0.3 + 0.7j], [2.0 - 1.0j], [0.01 + 5.0j]])
    got, ok = real.closure().eval_many(s)
    want = c / (s[:, 0] + 1.0)
    assert ok.all()
    assert np.all(np.abs(got[:, 0, 0] - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("num, den", [
    # 1e10 s / (s^2 + 1e-300 s + 1): a 1e-290 coupling divided by (1e-300)^2
    ({(1,): 1e10}, {(2,): 1.0, (1,): 1e-300, (0,): 1.0}),
    # 1 / (s^2 + 1e200 s + 1): the square of 1e200 overflows
    ({(0,): 1.0}, {(2,): 1.0, (1,): 1e200, (0,): 1.0}),
])
def test_realize_overflow_names_its_stage_without_a_warning(num, den):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteCoefficient, match=r"^coupling numerator overflows: .* "
                                                       r"the denominator's \(1,\) coefficient$"):
            realize_1d(pr(num, den))


def test_realize_rejects_matrix_input():
    f = RationalMatrixFunction(MatrixPoly.constant(1, np.eye(2), m=2), one(1))
    with pytest.raises(DimensionMismatch,
                       match=r"^input is 2 x 2; the one-variable realization is scalar$"):
        realize_1d(f)


def test_realize_rejects_several_variables():
    f = RationalMatrixFunction(sp(2, {(1, 0): 1.0}), one(2))
    with pytest.raises(DimensionMismatch, match=r"^input has 2 variables; expected 1$"):
        realize_1d(f)


def test_realize_rejects_non_real_coefficients():
    # (s + 2 + i)/(s + 1) has positive real part on the right half-plane, but
    # the lossless realization is for real functions
    with pytest.raises(DimensionMismatch, match=r"largest imaginary part 1\.0 after normalization"):
        realize_1d(pr({(1,): 1.0, (0,): 2.0 + 1j}, {(1,): 1.0, (0,): 1.0}))


def test_realize_rejects_sign_flipped_input():
    # -1/(s+1) has negative real part on the right half-plane; the coupling
    # constant comes out negative and the split refuses it
    with pytest.raises(SplitFailed):
        realize_1d(pr({(0,): -1.0}, {(1,): 1.0, (0,): 1.0}))


def test_refusals_name_the_identity_numbers(monkeypatch):
    f = ladder_cases(11, [6], 1)[0].function()
    order = r"\(deg den %d\)$" % f.den.total_degree()
    # at rtol 0 the rounding of the factored coupling is already too much
    monkeypatch.setattr(realization, "SPLIT_IDENTITY_RTOL", 0.0)
    with pytest.raises(SplitFailed, match=r"^factored coupling does not reproduce b\*c: "
                       r"max\|diff\| \S+ > rtol\*scale 0\.0 " + order):
        realize_1d(f)
    monkeypatch.undo()
    coupling = realization._coupling
    monkeypatch.setattr(realization, "_coupling",
                        lambda *args: (lambda b, c, k: (1.001 * b, c, k))(*coupling(*args)))
    with pytest.raises(ReconstructionMismatch) as exc:
        realize_1d(f)
    worst, bound = re.match(r"loop closure does not reproduce the input: max\|diff\| (\S+) "
                            r"> rtol\*scale (\S+) " + order, str(exc.value)).groups()
    assert float(worst) > float(bound) > 0.0
