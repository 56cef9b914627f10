"""Lift of a rational matrix Herglotz function to one more variable.

Splitting numerator and denominator into coefficient-Hermitian and
coefficient-real halves turns f = P/q in d variables into a pencil

    g(z, z_new) = (z_new*p1 + p2) / (z_new*q1 + q2)

in d+1 variables with g(z, i) = f(z).  For f with nonnegative imaginary
part on the upper poly-half-plane, g is additionally real on real points,
so the lift lands in the boundary (Cayley inner) class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import MatrixPoly, NonFiniteCoefficient
from .rational import RationalMatrixFunction

@dataclass(frozen=True)
class Decomposition:
    """Halves of a fraction P/q after normalize().

    p1, p2 carry Hermitian matrix coefficients and q1, q2 real scalar
    coefficients, with P = i*p1 + p2 and q = i*q1 + q2 (the identities hold
    at coefficient tolerance; Hermitian-ness and realness are exact because
    the halving arithmetic is sign-symmetric).
    """

    p1: MatrixPoly
    p2: MatrixPoly
    q1: MatrixPoly
    q2: MatrixPoly

    def is_structured(self):
        return (
            self.p1.has_hermitian_coeffs()
            and self.p2.has_hermitian_coeffs()
            and self.q1.has_real_coeffs()
            and self.q2.has_real_coeffs()
        )


def _halves(p):
    """(p - p*)(-i/2) and (p + p*)/2 with p* = p.bar_reflect(), on p's stack.

    The same float operations as ``(p - p.bar_reflect()).scaled(-0.5j)`` and
    its sibling; a term that cancels stays zero when scaled, so dropping
    zeros once, after scaling, keeps the same terms.
    """
    keys, c = list(p.terms), p._coeffs
    star = c.conj().transpose(0, 2, 1)
    return (MatrixPoly._from_stack(p.d, p.m, keys, (c - star) * -0.5j),
            MatrixPoly._from_stack(p.d, p.m, keys, (c + star) * 0.5))


def decompose(f):
    """Split f.normalize() into Hermitian/real coefficient halves."""
    g = f.normalize()
    return Decomposition(*_halves(g.num), *_halves(g.den))


def _pencil(hi, lo):
    """z_new * hi + lo in one more variable: the rows (e, 1) of hi, each the
    product with z_new's coefficient 1 that ``MatrixPoly.__mul__`` forms
    (that product can change the sign of a zero), then the rows (e, 0) of lo."""
    one, right = np.ones((1, 1, 1, 1), dtype=np.complex128), hi._coeffs[None]
    top = np.matmul(one, right) if hi.m == 1 else one * right
    keys = [e + (1,) for e in hi.terms] + [e + (0,) for e in lo.terms]
    return MatrixPoly._from_stack(hi.d + 1, hi.m, keys,
                                  np.concatenate((top.reshape(-1, hi.m, hi.m), lo._coeffs)))


@dataclass(frozen=True)
class DarlingtonLift:
    """Result of the one-variable lift: the pencil halves and the lifted function."""

    input: RationalMatrixFunction
    pieces: Decomposition
    lifted: RationalMatrixFunction


def lift(f):
    """Lift f (upper-half-plane frame) to d+1 variables with value f at z_new = i."""
    g = f.normalize()
    pieces = Decomposition(*_halves(g.num), *_halves(g.den))
    num, den = _pencil(pieces.p1, pieces.p2), _pencil(pieces.q1, pieces.q2)
    try:
        lifted = RationalMatrixFunction(num, den).normalize()
    except NonFiniteCoefficient as exc:
        # the lifted denominator's term (e, 1) is q1's, the imaginary part of
        # g.den's term e, and (e, 0) is q2's, the real part
        exps, lead = den.leading_coefficient()
        raise NonFiniteCoefficient(
            "lift normalization overflows: a non-finite coefficient after dividing by %r, "
            "the %s part of the denominator's %r coefficient"
            % (float(lead[0, 0].real), "imaginary" if exps[-1] else "real", exps[:-1])) from exc
    return DarlingtonLift(g, pieces, lifted)


def restrict_at_i(g):
    """Set the last variable to i, recovering a function of the first d-1 variables."""
    if g.d < 1:
        raise ValueError("need at least one variable to restrict")
    num = g.num.substitute_last(1j)
    den = g.den.substitute_last(1j)
    return RationalMatrixFunction(num, den)
