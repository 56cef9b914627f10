"""Lift to one more variable, and the one-variable lossless embedding."""

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
from darlington.lift import decompose
from corpus import herglotz_cases


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


def test_realize_round_trips_through_rotation():
    # the upper-half-plane corpus, moved to the right-half-plane frame
    for case in herglotz_cases():
        if case.f.m != 1 or case.f.d != 1:
            continue
        g = rotate_to_positive_real(case.f)
        if not g.num.has_real_coeffs() or not g.den.has_real_coeffs():
            continue
        real = realize_1d(g)
        assert identity_equal(real.closure(), g.normalize(), rtol=1e-7), case.name


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
