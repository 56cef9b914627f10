"""Lossless linear-fractional realization of a scalar positive-real function.

For a rational f = num/den of one variable with nonnegative real part on
the right half-plane, realize_1d produces a, b, c, d such that the block
[[a, b], [c, d]] is again positive-real and closing the loop with a unit
load recovers the input: f(s) = a(s) - b(s) c(s) / (d(s) + 1).

With n = deg den, pt1 and qt2 are the parts of the real num and den of
f.normalize() whose degrees have the parity of n, and pt2 and qt1 are the
other parts.  Then a = pt1/qt1, d = qt2/qt1 and b c = (pt1 qt2 - pt2 qt1)/qt1^2,
so the closure is (pt1 + pt2)/(qt1 + qt2) = f.  The four parts are the
one-variable lift's halves p1, p2, q1, q2 rotated back to this frame, each
times one unit constant that every ratio cancels (a tested fact).  The
zeros of qt1 interlace with those of qt2 (Hermite-Biehler), so they lie on
the imaginary axis, and den = qt1/lead(qt1) is the exact denominator
factor of b*c across s -> -s: all four entries share it.  Only the coupling
numerator is factored, as kappa h(s) h(-s) with h real and Hurwitz; it is
even, so its roots come from a polynomial of half its degree in s^2.  All
of this runs on real coefficient arrays; MatrixPoly appears only in the
returned entries.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .poly import DimensionMismatch, MatrixPoly, NonFiniteCoefficient, _quiet
from .rational import (RationalMatrixFunction, ReconstructionMismatch, _identity_gap,
                       _imag_coeff_excess, _negate_argument, _poly1, _roots, _scalar, _sub, _trim)

SPLIT_STRUCTURE_RTOL = 1e-7
SPLIT_IDENTITY_RTOL = 1e-7


class SplitFailed(ArithmeticError):
    """The coupling term could not be factored across s -> -s.

    The factorization constant came out non-positive or the stable factor
    not real, as for an input that is not positive-real; or the factored
    coupling missed b*c at SPLIT_IDENTITY_RTOL, which also refuses valid
    inputs of high order (of 40 seeded lossy ladders per order: none of
    order 16, 1 of order 20, 29 of order 24).  A refusal is never a wrong
    closure.
    """


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
        keys, stack = MatrixPoly._aligned([g.num for g in (self.a, self.b, self.c, self.d)])
        block = stack.swapaxes(0, 1).reshape(-1, 2, 2)
        return RationalMatrixFunction(MatrixPoly._from_stack(1, 2, keys, block), self.a.den)

    def _closed(self):
        """Numerator and denominator coefficients of the loop closure."""
        num, den = _scalar(self.a.num), _scalar(self.a.den)
        if self.variant == "lossless-trivial":
            return num, den
        if self.variant == "affine-residual":
            return _sub(num, -_scalar(self.residual.num)), den
        shifted = _sub(den, -_scalar(self.d.num))  # (d + 1) den
        return (_sub(np.convolve(num, shifted),
                     np.convolve(_scalar(self.b.num), _scalar(self.c.num))),
                np.convolve(den, shifted))

    def closure(self):
        """The loop closure as one exact rational function.

        lft: a - b*c/(d + 1); affine-residual: a + residual;
        lossless-trivial: a.
        """
        if self.variant == "lossless-trivial":
            return self.a
        return RationalMatrixFunction(*map(_poly1, self._closed()))


def _require_identity(num_f, den_f, num_h, den_h, error, what, order):
    """identity_equal on coefficient arrays, at SPLIT_IDENTITY_RTOL: unless
    num_f*den_h - num_h*den_f vanishes by ``_identity_gap``, raise ``error``
    saying ``what``, with both sides of the rule and the order deg den.
    Raises NonFiniteCoefficient when the cross product overflows."""
    diff = _sub(np.convolve(num_f, den_h), np.convolve(num_h, den_f))
    if not np.isfinite(diff).all():
        raise NonFiniteCoefficient("non-finite coefficient in a cross product")
    worst, bound = _identity_gap(diff, (num_f, den_f, num_h, den_h), SPLIT_IDENTITY_RTOL)
    if not worst <= bound:
        raise error("%s: max|diff| %r > rtol*scale %r (deg den %d)" % (what, worst, bound, order))


def _over(u, den):
    """The entry with numerator coefficients u over den, a monic MatrixPoly."""
    return RationalMatrixFunction(_poly1(u), den)


def _split_coupling(v):
    """Factor the real even v = kappa h(s) h(-s) with h real, monic and
    Hurwitz, kappa > 0.

    v(s) = U(s^2), so h has the roots -sqrt(u) over the roots u of U, and
    h(s) h(-s) = (-1)^deg h U(s^2) / lead(U).  Returns (h, kappa).  After
    the trim every coefficient of U is below 1e12 times its top, so the
    overflow guard of ``_roots`` cannot fire."""
    u = _trim(v[0::2], 1e-12 * np.abs(v).max())
    roots = _roots(u)
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
        raise SplitFailed("coupling constant %r is not positive; input is likely not "
                          "positive-real" % kappa)
    return h.real, float(kappa)


def _coupling(pt1, pt2, qt1, qt2, den):
    """The numerators of b and c, and kappa, with
    b c = (pt1 qt2 - pt2 qt1) / qt1^2 over den = qt1 / lead(qt1), which has
    only imaginary-axis zeros.  qt1 has a nonzero top coefficient; qt2 is
    as long as the input denominator."""
    wn = _sub(np.convolve(pt1, qt2), np.convolve(pt2, qt1))
    w_scale = max(np.abs(pt1).max() * np.abs(qt2).max(), np.abs(pt2).max() * np.abs(qt1).max())
    if np.isfinite(wn).all() and np.abs(wn).max() <= 1e-13 * w_scale:
        return np.zeros(1), np.zeros(1), 0.0
    # b c = wn / qt1^2 = (-1)^(n+1) kappa h(s) h(-s) / den^2; both products
    # of same-parity parts are even, so v is even with exact zeros
    n = len(qt1) - 1
    v = (-1) ** (n + 1) * wn / qt1[-1] ** 2
    # a nonzero wn that comes out all zeros lost its divisor to overflow
    if not (np.isfinite(v).all() and v.any()):
        raise NonFiniteCoefficient("non-finite coefficient in the coupling numerator")
    h, kappa = _split_coupling(v)
    sk = np.sqrt(kappa)
    b, c = sk * h, (-1) ** (n + 1) * sk * _negate_argument(h)
    _require_identity(np.convolve(b, c), np.convolve(den, den), wn, np.convolve(qt1, qt1),
                      SplitFailed, "factored coupling does not reproduce b*c", len(qt2) - 1)
    return b, c, kappa


@contextmanager
def _overflow_names(stage, half):
    """Re-raise an overflow naming the stage and the input denominator term
    behind it: the realization divides only by the leading coefficient of
    ``half`` (None: no division), a term of the denominator after normalize()."""
    try:
        yield
    except NonFiniteCoefficient as exc:
        if half is None:
            raise NonFiniteCoefficient("%s overflows: a product of input coefficients leaves "
                                       "a non-finite coefficient" % stage) from exc
        raise NonFiniteCoefficient(
            "%s overflows: a non-finite coefficient after dividing by %r, the magnitude of "
            "the denominator's %r coefficient"
            % (stage, float(abs(half[-1])), (len(half) - 1,))) from exc


@_quiet
def realize_1d(f):
    """Lossless 2 x 2 embedding of a scalar one-variable positive-real function.

    Returns an LFTRealization whose loop closure equals f as an exact
    rational identity (checked; ReconstructionMismatch otherwise).  Raises
    DimensionMismatch unless f is scalar, of one variable and, after
    normalize(), has real coefficients.  An overflow raises
    NonFiniteCoefficient naming the stage, without a numpy warning.
    """
    if f.m != 1:
        raise DimensionMismatch("input is %d x %d; the one-variable realization is scalar"
                                % (f.m, f.m))
    if f.d != 1:
        raise DimensionMismatch("input has %d variables; expected 1" % f.d)
    source = f.normalize()
    imag = max(_imag_coeff_excess(source.num._coeffs), _imag_coeff_excess(source.den._coeffs))
    if imag:
        raise DimensionMismatch("input has non-real coefficients (largest imaginary part %r "
                                "after normalization); the realization needs real ones" % imag)
    # the parts of num and den whose degrees have the parity of deg den, then the others
    num, den = _scalar(source.num), _scalar(source.den)
    pt1, qt2 = (np.where(np.arange(len(u)) % 2 == (len(den) - 1) % 2, u.real, 0.0)
                for u in (num, den))
    pt2, qt1 = num.real - pt1, den.real - qt2

    # every division below is by the leading coefficient of ``half``
    if not qt1.any() and not pt1.any():
        half = None
        zero = _over([], source.den)
        real = LFTRealization("lossless-trivial", source, zero, zero, zero, None, None, source)
    elif not qt1.any():
        half = qt2
        with _overflow_names("block normalization", half):
            den1 = _poly1(half / half[-1])
            a, residual = _over(pt2 / half[-1], den1), _over(pt1 / half[-1], den1)
        zero = _over([], den1)
        real = LFTRealization("affine-residual", a, zero, zero, zero, None, residual, source)
    else:
        half = _trim(qt1, 0.0)
        with _overflow_names("block normalization", half):
            den1 = _poly1(half / half[-1])
            a, dvar = _over(pt1 / half[-1], den1), _over(qt2 / half[-1], den1)
        with _overflow_names("coupling numerator", half):
            bn, cn, kappa = _coupling(pt1, pt2, half, qt2, half / half[-1])
        real = LFTRealization("lft", a, _over(bn, den1), _over(cn, den1), dvar, kappa, None,
                              source)

    with _overflow_names("closure", half):
        _require_identity(*real._closed(), num, den, ReconstructionMismatch,
                          "loop closure does not reproduce the input", len(den) - 1)
    return real
