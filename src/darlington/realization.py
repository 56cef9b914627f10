"""Lossless linear-fractional realization of a scalar positive-real function.

For a rational f of one variable with nonnegative real part on the right
half-plane, realize_1d produces four rational functions a, b, c, d such
that the block [[a, b], [c, d]] is again positive-real and closing the
loop with a unit load recovers the input:

    f(s) = a(s) - b(s) c(s) / (d(s) + 1).

The route goes through the one-variable lift: rotate to the upper
half-plane frame, split numerator and denominator into coefficient
halves p1, p2, q1, q2 and rotate the pencil back.  Then a = p1/q1 and
d = q2/q1.  The zeros of q1 interlace with those of q2 (Hermite-Biehler),
so they lie on the imaginary axis, and den = q1/lead(q1) is the exact
denominator factor of the coupling term w = b*c across s -> -s: all four
entries share it.  Only the coupling numerator is factored, as
kappa h(s) h(-s) with h real and Hurwitz: it is real and even, so its
roots come from a polynomial of half the degree in s^2.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import _imag_coeff_excess
from .lift import decompose
from .poly import DimensionMismatch, MatrixPoly, NonFiniteCoefficient
from .rational import (
    RationalMatrixFunction,
    _coeffs,
    _negate_argument,
    _poly1,
    _trim,
    identity_equal,
    rotate_to_nevanlinna,
)

SPLIT_STRUCTURE_RTOL = 1e-7
SPLIT_IDENTITY_RTOL = 1e-7


class SplitFailed(ArithmeticError):
    """The coupling term could not be factored across s -> -s.

    The input was not positive-real: the factorization constant came out
    non-positive, or the stable factor not real.
    """


class ReconstructionMismatch(ArithmeticError):
    """The assembled block failed to reproduce the input exactly."""


@dataclass(frozen=True)
class LFTRealization:
    """Block entries of the lossless embedding, all in the right-half-plane frame.

    variant is "lft" (generic case, f = a - b*c/(d+1)), "affine-residual"
    (denominator already real: f = a + residual, load enters affinely) or
    "lossless-trivial" (numerator and denominator both already real:
    f = a and the load decouples).  Every entry, and the residual, is over
    the one denominator a.den.  kappa is the positive constant of the
    coupling factorization (None when there was nothing to factor).
    r is the load multiplicity, always 1 here.
    """

    variant: str
    a: RationalMatrixFunction
    b: RationalMatrixFunction
    c: RationalMatrixFunction
    d: RationalMatrixFunction
    kappa: Optional[float]
    residual: Optional[RationalMatrixFunction]
    source: RationalMatrixFunction
    r: int = 1

    def block(self):
        """The 2 x 2 matrix function [[a, b], [c, d]] over the shared a.den."""
        terms = {}
        for k, g in enumerate((self.a, self.b, self.c, self.d)):
            for e, arr in g.num.terms.items():
                terms.setdefault(e, np.zeros((2, 2), dtype=np.complex128))
                terms[e][divmod(k, 2)] = arr[0, 0]
        return RationalMatrixFunction(MatrixPoly(1, 2, terms), self.a.den)

    def closure(self):
        """The loop closure as one exact rational function.

        lft: a - b*c/(d + 1); affine-residual: a + residual;
        lossless-trivial: a.
        """
        if self.variant == "lossless-trivial":
            return self.a
        den = self.a.den
        if self.variant == "affine-residual":
            return RationalMatrixFunction(self.a.num + self.residual.num, den)
        shifted = den + self.d.num  # (d + 1) den
        return RationalMatrixFunction(self.a.num * shifted - self.b.num * self.c.num,
                                      den * shifted)


def _force_real_even(u, what):
    """Check a coefficient array is real and even within tolerance, then force it."""
    scale = np.abs(u).max()
    if scale == 0.0:
        return u.real
    if np.abs(u.imag).max() > SPLIT_STRUCTURE_RTOL * scale:
        raise SplitFailed("%s is not real within tolerance" % what)
    v = u.real.copy()
    odd = v[1::2]
    if odd.size and np.abs(odd).max() > SPLIT_STRUCTURE_RTOL * scale:
        raise SplitFailed("%s is not even within tolerance" % what)
    v[1::2] = 0.0
    return v


def _split_coupling(v):
    """Factor v = kappa h(s) h(-s) with h real, monic and Hurwitz, kappa > 0.

    v is even, v(s) = U(s^2), so h has the roots -sqrt(u) over the roots u
    of U, and h(s) h(-s) = (-1)^deg h U(s^2) / lead(U).  Returns (h, kappa).
    """
    v = _force_real_even(v, "coupling numerator")
    u = _trim(v[0::2], 1e-12 * np.abs(v).max())
    roots = np.roots(u[::-1]).astype(np.complex128)
    r = -np.sqrt(roots)
    # a negative root of U is a zero pair of v on the imaginary axis, of even
    # multiplicity when v keeps its sign there; when the roots come out real
    # rather than as a conjugate pair, alternate the sign of their square roots
    axis = np.flatnonzero((roots.imag == 0) & (roots.real < 0))
    flip = axis[np.argsort(roots[axis].real)][1::2]
    r[flip] = r[flip].conj()
    h = np.atleast_1d(np.poly(r))[::-1]
    if np.abs(h.imag).max() > SPLIT_STRUCTURE_RTOL * np.abs(h).max():
        raise SplitFailed("stable numerator factor did not come out real")
    kappa = (-1) ** (len(u) - 1) * u[-1]
    if kappa <= 0.0:
        raise SplitFailed(
            "coupling constant %r is not positive; input is likely not positive-real" % kappa
        )
    return h.real, float(kappa)


def _zero_over(den):
    return RationalMatrixFunction(MatrixPoly.zero(1, 1), den)


def _coupling(pt1, pt2, qt1, qt2, den):
    """The entries b, c and kappa, with b c = (pt1 qt2 - pt2 qt1) / qt1^2,
    over den = qt1 / lead(qt1), which has only imaginary-axis zeros."""
    n = den.total_degree()
    wn_poly = pt1 * qt2 - pt2 * qt1
    w_scale = max(
        pt1.max_coeff_magnitude() * qt2.max_coeff_magnitude(),
        pt2.max_coeff_magnitude() * qt1.max_coeff_magnitude(),
        1.0,
    )
    if wn_poly.max_coeff_magnitude() <= 1e-13 * w_scale:
        return _zero_over(den), _zero_over(den), 0.0
    # b c = wn / qt1^2 = (-1)^(n+1) kappa h(s) h(-s) / den^2
    lead = complex(qt1.leading_coefficient()[1][0, 0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = (-1) ** (n + 1) * _coeffs(wn_poly)[:, 0, 0] / lead**2
    if not np.isfinite(v).all():
        raise NonFiniteCoefficient("non-finite coefficient in the coupling numerator")
    h, kappa = _split_coupling(v)
    sk = np.sqrt(kappa)
    b = RationalMatrixFunction(_poly1(sk * h), den)
    c = RationalMatrixFunction(_poly1((-1) ** (n + 1) * sk * _negate_argument(h)), den)
    made = RationalMatrixFunction(b.num * c.num, den * den)
    wanted = RationalMatrixFunction(wn_poly, qt1 * qt1)
    if not identity_equal(made, wanted, SPLIT_IDENTITY_RTOL):
        raise SplitFailed("factored coupling does not reproduce b*c")
    return b, c, kappa


@contextmanager
def _overflow_names(stage, half):
    """Re-raise an overflow naming the stage and the input denominator term
    behind it.  The realization divides only by the leading coefficient of
    the rotated denominator half ``half`` (None: no division), which has the
    exponent and the magnitude of a term of the normalized input's
    denominator."""
    try:
        yield
    except NonFiniteCoefficient as exc:
        if half is None:
            raise NonFiniteCoefficient("%s overflows: a product of input coefficients leaves "
                                       "a non-finite coefficient" % stage) from exc
        exps, lead = half.leading_coefficient()
        raise NonFiniteCoefficient(
            "%s overflows: a non-finite coefficient after dividing by %r, the magnitude of "
            "the denominator's %r coefficient" % (stage, float(abs(lead[0, 0])), exps)) from exc


def realize_1d(f):
    """Lossless 2 x 2 embedding of a scalar one-variable positive-real function.

    Returns an LFTRealization whose loop closure equals f as an exact
    rational identity (checked; ReconstructionMismatch otherwise).  Raises
    DimensionMismatch unless f is scalar, of one variable and, once
    normalized, has real coefficients.
    """
    if f.m != 1:
        raise DimensionMismatch("input is %d x %d; the one-variable realization is scalar"
                                % (f.m, f.m))
    if f.d != 1:
        raise DimensionMismatch("input has %d variables; expected 1" % f.d)
    source = f if f.normalized else f.normalize()
    imag = max(_imag_coeff_excess(source.num), _imag_coeff_excess(source.den))
    if imag:
        raise DimensionMismatch("input has non-real coefficients (largest imaginary part %r "
                                "after normalization); the realization needs real ones" % imag)
    pieces = decompose(rotate_to_nevanlinna(source))

    # rotate the pencil halves back to the right-half-plane frame
    pt1 = pieces.p1.scale_variables([1j]).scaled(-1j)
    pt2 = pieces.p2.scale_variables([1j]).scaled(-1.0)
    qt1 = pieces.q1.scale_variables([1j])
    qt2 = pieces.q2.scale_variables([1j]).scaled(-1j)

    # every division below is by the leading coefficient of ``half``
    if pieces.q1.is_zero():
        if pieces.p1.is_zero():
            half = None
            zero = _zero_over(source.den)
            real = LFTRealization(
                "lossless-trivial", source, zero, zero, zero, None, None, source,
            )
        else:
            half = qt2
            with _overflow_names("block normalization", half):
                a = RationalMatrixFunction(pt2, qt2).normalize()
                residual = RationalMatrixFunction(pt1, qt2).normalize()
            zero = _zero_over(a.den)
            real = LFTRealization(
                "affine-residual", a, zero, zero, zero, None, residual, source,
            )
    else:
        half = qt1
        with _overflow_names("block normalization", half):
            a = RationalMatrixFunction(pt1, qt1).normalize()
            dvar = RationalMatrixFunction(qt2, qt1).normalize()
        with _overflow_names("coupling numerator", half):
            b, c, kappa = _coupling(pt1, pt2, qt1, qt2, a.den)
        real = LFTRealization("lft", a, b, c, dvar, kappa, None, source)

    with _overflow_names("closure", half):
        closed = identity_equal(real.closure(), source, SPLIT_IDENTITY_RTOL)
    if not closed:
        raise ReconstructionMismatch("loop closure does not reproduce the input")
    return real
