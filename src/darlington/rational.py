"""Rational matrix functions: a matrix polynomial over a scalar denominator.

Fractions are never reduced; equality is the cross-multiplied identity test
at coefficient tolerance.  Coprimality of numerator and denominator is
probed by univariate Euclid on each scalarization, a weighting of the
matrix value, and only ever reported, never acted on.  In one variable the
probe is one exact restriction, in z itself; in several it restricts to
random lines, by evaluation at roots of unity and one FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SEED, DEN_FLOOR_RTOL
from .poly import DimensionMismatch, MatrixPoly, NonFiniteCoefficient, _quiet

IDENTITY_RTOL = 1e-12
COEFF_REAL_RTOL = 1e-12
GCD_DROP_TOL = 1e-10


class NearPole(ArithmeticError):
    """Evaluation point is too close to a denominator zero."""


class ReconstructionMismatch(ArithmeticError):
    """The assembled block failed to reproduce the input exactly."""


class DegenerateLine(RuntimeError):
    """A restriction line kept collapsing a polynomial to zero."""


class RationalMatrixFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not isinstance(num, MatrixPoly) or not isinstance(den, MatrixPoly):
            raise TypeError("num and den must be MatrixPoly")
        if num.d != den.d:
            raise DimensionMismatch("num has d=%d, den has d=%d" % (num.d, den.d))
        if den.m != 1:
            raise DimensionMismatch("denominator must be scalar (m=1)")
        if den.is_zero():
            raise ValueError("denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrixFunction is immutable")

    def __reduce__(self):
        return (RationalMatrixFunction, (self.num, self.den))

    @property
    def d(self):
        return self.num.d

    @property
    def m(self):
        return self.num.m

    @_quiet
    def normalize(self):
        """Divide by the graded-lex-leading denominator coefficient, which
        comes out exactly 1.

        This is the canonical representative used before decomposition and
        serialization; idempotent bit for bit.  Raises NonFiniteCoefficient
        (a ValueError), naming the coefficient, when the quotients overflow.
        """
        exps, lead = self.den.leading_coefficient()
        c = complex(lead[0, 0])
        try:
            return RationalMatrixFunction(self.num.divided(c), self.den.divided(c))
        except NonFiniteCoefficient as exc:
            raise NonFiniteCoefficient("dividing by the leading denominator coefficient %r at %r "
                                       "overflows: %s" % (c, exps, exc)) from exc

    def den_floor(self, rtol=DEN_FLOOR_RTOL):
        return rtol * self.den.max_coeff_magnitude()

    def eval(self, z, den_floor_rtol=DEN_FLOOR_RTOL):
        """Value at a point; raises NearPole when |den(z)| is below the relative floor."""
        dv = complex(self.den.evaluate(z)[0, 0])
        floor = self.den_floor(den_floor_rtol)
        if abs(dv) <= floor:
            point = ", ".join(repr(complex(c)) for c in np.ravel(z))
            raise NearPole("denominator magnitude %g at [%s] is below the pole floor %g"
                           % (abs(dv), point, floor))
        return self.num.evaluate(z) / dv

    def eval_many(self, Z, den_floor_rtol=DEN_FLOOR_RTOL):
        """Vectorized eval.  Returns (values, ok) where ok marks non-pole rows."""
        Z = np.asarray(Z, dtype=np.complex128)
        dv = self.den.evaluate_many(Z)[:, 0, 0]
        ok = np.abs(dv) > self.den_floor(den_floor_rtol)
        safe = np.where(ok, dv, 1.0)
        vals = self.num.evaluate_many(Z) / safe[:, None, None]
        return vals, ok

    def __repr__(self):
        return "RationalMatrixFunction(d=%d, m=%d, num %d terms / den %d terms)" % (
            self.d,
            self.m,
            len(self.num.terms),
            len(self.den.terms),
        )


def _identity_gap(diff, operands, rtol):
    """The identity rule's two sides, on coefficient arrays: max|diff| and
    rtol times the largest coefficient magnitude among the operands.  The
    identity holds when the first is at most the second."""
    scale = max(np.abs(u).max(initial=0.0) for u in operands)
    return float(np.abs(diff).max(initial=0.0)), float(rtol * scale)


def _imag_coeff_excess(coeffs):
    """The largest imaginary part in the complex array ``coeffs`` (a
    polynomial's stack or a row of the hunt's table), when it exceeds
    COEFF_REAL_RTOL times the largest magnitude there; 0.0 otherwise."""
    worst = float(np.abs(coeffs.imag).max(initial=0.0))
    return worst if worst > COEFF_REAL_RTOL * max(np.abs(coeffs).max(initial=0.0), 1e-300) else 0.0


def _exponent_groups(exps):
    """For a (T, d) exponent array: the group of each row, equal rows in one
    group.  The rows are coded by mixed radix for one np.unique over
    integers, unless the codes could overflow int64."""
    radices = [int(r) + 1 for r in exps.max(axis=0, initial=0)]
    if np.prod(radices, dtype=object) < 2 ** 62:
        places = np.cumprod([1] + radices, dtype=np.int64)[:-1]
        return np.unique(exps @ places, return_inverse=True)[1]
    return np.unique(exps, axis=0, return_inverse=True)[1].reshape(-1)


@_quiet
def identity_equal(f, h, rtol=IDENTITY_RTOL):
    """Whether num_f*den_h - num_h*den_f vanishes, at tolerance rtol relative
    to the largest coefficient magnitude among the four operands.

    The cross products (``MatrixPoly._products``) are summed on arrays, never
    built as polynomials, with the additions of f.num*h.den - h.num*f.den in
    their order: each side's products that share an exponent are added one
    after another into zeros (``np.add.at`` goes in index order), then the
    sides are subtracted.  So max|diff| is the same to the bit, and exact
    cancellation stays exact.
    Raises NonFiniteCoefficient, naming an exponent, when the difference is
    not finite, as it is wherever a cross product overflowed.
    """
    if f.d != h.d or f.m != h.m:
        return False
    (p, p_exps), (q, q_exps) = f.num._products(h.den), h.num._products(f.den)
    exps = np.concatenate((p_exps, q_exps))
    groups = _exponent_groups(exps)
    mm = f.m * f.m
    sides = np.zeros((2, groups.max(initial=-1) + 1, mm), dtype=np.complex128)
    for side, (prods, rows) in zip(sides, ((p, groups[:len(p)]), (q, groups[len(p):]))):
        # add.at over a flat array: per-index (m, m) blocks take its slow path
        slots = (rows[:, None] * mm + np.arange(mm)).ravel()
        np.add.at(side.reshape(-1), slots, prods.reshape(-1))
    diff = sides[0] - sides[1]
    finite = np.isfinite(diff).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(groups == np.flatnonzero(~finite)[0])[0])
        raise NonFiniteCoefficient("non-finite coefficient at %r in a cross product"
                                   % (tuple(exps[bad].tolist()),))
    operands = (f.num, f.den, h.num, h.den)
    worst, bound = _identity_gap(diff, [u._coeffs for u in operands], rtol)
    return worst <= bound


# ----------------------------------------------------------------------
# frame rotations between the two half-plane conventions


def _rotate(f, u):
    """g(z) = -u * f(u z), for a unit u."""
    return RationalMatrixFunction(f.num.scale_variables([u] * f.d).scaled(-u),
                                  f.den.scale_variables([u] * f.d))


def rotate_to_nevanlinna(f):
    """Move a right-half-plane (positive-real frame) function to the upper
    half-plane frame: g(z) = i * f(-i z).  Inverse of rotate_to_positive_real."""
    return _rotate(f, -1j)


def rotate_to_positive_real(f):
    """Move an upper-half-plane (Herglotz frame) function to the right
    half-plane frame: g(s) = -i * f(i s).  Inverse of rotate_to_nevanlinna."""
    return _rotate(f, 1j)


# ----------------------------------------------------------------------
# univariate helpers: ascending coefficient arrays of scalar polynomials


def _trim(u, tol):
    """u without its top coefficients of magnitude <= tol; empty when all are."""
    n = len(u)
    while n > 0 and abs(u[n - 1]) <= tol:
        n -= 1
    return u[:n]


def _sub(u, v):
    """Coefficients of u - v, the shorter array padded with zeros."""
    out = np.zeros(max(len(u), len(v)), dtype=np.result_type(u, v))
    out[:len(u)] = u
    out[:len(v)] -= v
    return out


def _coeffs(p):
    """Coefficients of a univariate MatrixPoly, as an (n, m, m) stack (one
    zero matrix when it is zero)."""
    e = p._exponents()[:, 0]
    out = np.zeros((e.max(initial=0) + 1, p.m, p.m), dtype=np.complex128)
    out[e] = p._coeffs
    return out


def _scalar(p):
    """Ascending coefficients of a scalar univariate MatrixPoly."""
    return _coeffs(p)[:, 0, 0]


def _roots(u):
    """Roots of the polynomial with ascending coefficients u, complex.  Top
    zeros are dropped, and so is each top coefficient that a lower one
    exceeds beyond the largest double, as np.roots's companion matrix would
    overflow: its roots lie where z^n overflows too, so p could not be
    valued there.  With all but the constant dropped, there is no root."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = u / u[:, None]     # [j, k]: u_k / u_j
    kept = (u != 0) & np.isfinite(np.tril(ratios, -1)).all(axis=1)
    return np.roots(u[len(u) - 1 - kept[::-1].argmax()::-1]).astype(np.complex128)


def _poly1(u):
    """The scalar univariate MatrixPoly with coefficients u."""
    u = np.array(u, dtype=np.complex128).reshape(-1, 1, 1)
    return MatrixPoly._from_stack(1, 1, [(k,) for k in range(len(u))], u)


def _negate_argument(u):
    """Coefficients of p(-s) from those of p(s)."""
    v = np.array(u)
    v[1::2] *= -1
    return v


def _poly_mod(u, v):
    """Remainder of u by monic v."""
    r = np.array(u, dtype=np.complex128)
    while len(r) >= len(v):
        c = r[-1]
        if c != 0:
            r[len(r) - len(v):] -= c * v
        r = r[:-1]
    return r


def _line_coeffs(p, a, b, n):
    """Coefficients in t of p on the line z = a + t b, as an (n, m, m) array.

    p is evaluated at the n-th roots of unity and the values go through one
    FFT, so the result is exact (up to rounding) when deg p < n.
    """
    t = np.exp(2j * np.pi * np.arange(n) / n)
    return np.fft.fft(p.evaluate_many(a + t[:, None] * b), axis=0) / n


# ----------------------------------------------------------------------
# coprimality probe


@dataclass(frozen=True)
class CoprimeVerdict:
    verdict: str  # "coprime-probable" | "common-factor-found" | "inconclusive"
    lines_used: int
    gcd_degree_per_line: tuple
    seed: int

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "lines_used": int(self.lines_used),
            "gcd_degree_per_line": [int(g) for g in self.gcd_degree_per_line],
            "seed": int(self.seed),
        }


def _gcd_degree(u, v, drop_tol=GCD_DROP_TOL):
    """Degree of gcd of two univariate float polynomials (ascending coeffs).

    Euclidean remainders are kept monic; trailing coefficients within
    drop_tol (relative to the remainder's largest coefficient) are dropped
    so noise cannot inflate the degree.
    """

    def prep(w):
        w = np.asarray(w, dtype=np.complex128)
        mx = np.abs(w).max() if w.size else 0.0
        if mx == 0.0:
            return w[:0]
        w = _trim(w, drop_tol * mx)
        return w / w[-1] if w.size else w

    u, v = prep(u), prep(v)
    if u.size == 0 and v.size == 0:
        raise ValueError("gcd of two zero polynomials")
    if u.size == 0:
        return len(v) - 1
    if v.size == 0:
        return len(u) - 1
    # pivot: divide the higher-degree polynomial by the lower one
    while True:
        if len(u) < len(v):
            u, v = v, u
        if len(v) == 1:
            return 0
        r = _poly_mod(u, v)
        # negligible relative to the operands (both monic), not to itself:
        # a numerically-zero remainder must actually vanish here
        scale = max(np.abs(u).max(), np.abs(v).max())
        r = _trim(r, drop_tol * scale)
        if r.size == 0:
            return len(v) - 1
        u, v = v, r / r[-1]


def coprime_probe(f, lines=8, seed=DEFAULT_SEED):
    """Probe whether numerator and denominator share a polynomial factor.

    Each numerator entry that is not identically zero, plus one random
    compression eta * num * eta^*, is a scalarization: a fixed weighting of
    the (m, m) numerator value.  Each scalarization and the denominator are
    restricted to univariate polynomials; a common factor forces a
    nontrivial gcd on every restriction.  In one variable there is one exact
    restriction, in z itself (a line a + t b would only change the variable
    affinely).  ``lines`` and the line draws apply only for d >= 2, which
    restricts to that many random complex lines by evaluation at roots of
    unity and one FFT.  ``seed`` drives the compression and the lines.  The
    result is evidence, not a certificate: "coprime-probable" when every
    scalarization has some restriction with gcd degree 0,
    "common-factor-found" when every restriction and scalarization has gcd
    degree >= 1, otherwise "inconclusive".
    """
    if lines < 1:
        raise ValueError("lines must be at least 1, got %r" % (lines,))
    num, den = f.num, f.den
    d, m = f.d, f.m
    rng = np.random.default_rng(seed)

    def draw_vec():
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)

    # one row per scalarization: its weight on each entry of the (m, m) value;
    # a line is degenerate for a scalarization when its restriction vanishes
    # relative to that scalarization's own largest coefficient
    if num.is_zero():
        weights, sv_scale = np.zeros((1, m * m)), np.zeros(1)
    else:
        stack = num._coeffs
        weights = list(np.eye(m * m)[stack.any(axis=0).ravel()])
        for _ in range(20):
            eta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if np.any(eta @ stack @ eta.conj()):
                weights.append(np.outer(eta, eta.conj()).ravel())
                break
        weights = np.array(weights)
        sv_scale = np.abs(stack.reshape(len(stack), m * m) @ weights.T).max(axis=0)

    if d == 1:
        # a line a + t b only changes the variable affinely: restrict in z itself
        restrictions = [(_scalar(den), _coeffs(num).reshape(-1, m * m) @ weights.T)]
    else:
        den_scale = max(den.max_coeff_magnitude(), 1e-300)
        den_deg = den.total_degree()
        n = max(num.total_degree(), den_deg) + 1
        restrictions = []
        for ln in range(lines):
            for attempt in range(20):
                a, b = draw_vec(), draw_vec()
                qv = _line_coeffs(den, a, b, n)[:, 0, 0]
                if np.abs(qv).max() <= 1e-14 * den_scale and den_deg > 0:
                    continue
                svs = _line_coeffs(num, a, b, n).reshape(n, m * m) @ weights.T
                if num.is_zero() or np.all(np.abs(svs).max(axis=0) > 1e-14 * sv_scale):
                    break
            else:
                raise DegenerateLine("could not draw a nondegenerate restriction line")
            restrictions.append((qv, svs))
    # rows: scalarizations; columns: restrictions
    degrees = np.array([[_gcd_degree(sv, qv) for sv in svs.T]
                        for qv, svs in restrictions]).T

    if np.all(degrees >= 1):
        verdict = "common-factor-found"
    elif np.any(degrees == 0, axis=1).all():
        verdict = "coprime-probable"
    else:
        verdict = "inconclusive"
    return CoprimeVerdict(verdict, len(restrictions), tuple(degrees.min(axis=0).tolist()), seed)
