"""Rational matrix functions: a matrix polynomial over a scalar denominator.

Fractions are never reduced; equality is the cross-multiplied identity test
at coefficient tolerance.  Coprimality of numerator and denominator is
probed probabilistically (random line restrictions + univariate Euclid) and
only ever reported, never acted on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import DimensionMismatch, MatrixPoly

__all__ = [
    "NearPole",
    "DegenerateLine",
    "RationalMatrixFunction",
    "CoprimeVerdict",
    "identity_equal",
    "coprime_probe",
    "from_entries",
    "rotate_to_nevanlinna",
    "rotate_to_positive_real",
]

IDENTITY_RTOL = 1e-12
DEN_FLOOR_RTOL = 1e-12
GCD_DROP_TOL = 1e-10


class NearPole(ArithmeticError):
    """Evaluation point is too close to a denominator zero."""


class DegenerateLine(RuntimeError):
    """A restriction line kept collapsing a polynomial to zero."""


class RationalMatrixFunction:
    __slots__ = ("num", "den", "normalized")

    def __init__(self, num, den, normalized=False):
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
        object.__setattr__(self, "normalized", bool(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrixFunction is immutable")

    def __reduce__(self):
        return (RationalMatrixFunction, (self.num, self.den, self.normalized))

    @property
    def d(self):
        return self.num.d

    @property
    def m(self):
        return self.num.m

    def normalize(self):
        """Scale so the graded-lex-leading denominator coefficient is 1.

        This is the canonical representative used before decomposition and
        serialization; idempotent.  Raises ValueError, naming the coefficient,
        when the scaled coefficients overflow.
        """
        exps, lead = self.den.leading_coefficient()
        c = complex(lead[0, 0])
        inv = 1.0 / c
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return RationalMatrixFunction(
                    self.num.scaled(inv), self.den.scaled(inv), normalized=True
                )
        except ValueError as exc:
            raise ValueError("dividing by the leading denominator coefficient %r at %r "
                             "overflows: %s" % (c, exps, exc)) from exc

    def den_floor(self, rtol=DEN_FLOOR_RTOL):
        return rtol * self.den.max_coeff_magnitude()

    def eval(self, z, den_floor_rtol=DEN_FLOOR_RTOL):
        """Value at a point; raises NearPole when |den(z)| is below the relative floor."""
        dv = complex(self.den.evaluate(z)[0, 0])
        if abs(dv) <= self.den_floor(den_floor_rtol):
            raise NearPole("denominator magnitude %g at %r is below the pole floor" % (abs(dv), z))
        return self.num.evaluate(z) / dv

    def eval_many(self, Z, den_floor_rtol=DEN_FLOOR_RTOL):
        """Vectorized eval.  Returns (values, ok) where ok marks non-pole rows."""
        Z = np.asarray(Z, dtype=np.complex128)
        dv = self.den.evaluate_many(Z)[:, 0, 0]
        ok = np.abs(dv) > self.den_floor(den_floor_rtol)
        safe = np.where(ok, dv, 1.0)
        vals = self.num.evaluate_many(Z) / safe[:, None, None]
        return vals, ok

    def compress(self, eta):
        """Scalar rational function eta f eta^* (same denominator)."""
        return RationalMatrixFunction(self.num.quadratic_form(eta), self.den)

    def __repr__(self):
        return "RationalMatrixFunction(d=%d, m=%d, num %d terms / den %d terms)" % (
            self.d,
            self.m,
            len(self.num.terms),
            len(self.den.terms),
        )


def identity_equal(f, h, rtol=IDENTITY_RTOL):
    """Whether num_f*den_h - num_h*den_f vanishes, at tolerance rtol relative
    to the largest coefficient magnitude among the four operands."""
    if f.d != h.d or f.m != h.m:
        return False
    scale = max(
        f.num.max_coeff_magnitude(),
        f.den.max_coeff_magnitude(),
        h.num.max_coeff_magnitude(),
        h.den.max_coeff_magnitude(),
    )
    diff = f.num * h.den - h.num * f.den
    return diff.max_coeff_magnitude() <= rtol * scale


def from_entries(entries):
    """Assemble an m x m rational function from scalar entries.

    The common denominator is the product of all entry denominators (no
    reduction is attempted).
    """
    m = len(entries)
    if any(len(row) != m for row in entries):
        raise ValueError("entries must form a square array")
    d = entries[0][0].d
    for row in entries:
        for g in row:
            if g.d != d or g.m != 1:
                raise DimensionMismatch("entries must be scalar functions in %d variables" % d)
    den = MatrixPoly.constant(d, 1.0)
    for row in entries:
        for g in row:
            den = den * g.den
    num = MatrixPoly.zero(d, m)
    for i in range(m):
        for j in range(m):
            cofactor = MatrixPoly.constant(d, 1.0)
            for a in range(m):
                for b in range(m):
                    if (a, b) != (i, j):
                        cofactor = cofactor * entries[a][b].den
            basis = np.zeros((m, m))
            basis[i, j] = 1.0
            num = num + (entries[i][j].num * cofactor) * MatrixPoly.constant(d, basis)
    return RationalMatrixFunction(num, den)


# ----------------------------------------------------------------------
# frame rotations between the two half-plane conventions


def rotate_to_nevanlinna(f):
    """Move a right-half-plane (positive-real frame) function to the upper
    half-plane frame: g(z) = i * f(-i z).  Inverse of rotate_to_positive_real."""
    d = f.d
    num = f.num.scale_variables([-1j] * d).scaled(1j)
    den = f.den.scale_variables([-1j] * d)
    return RationalMatrixFunction(num, den)


def rotate_to_positive_real(f):
    """Move an upper-half-plane (Herglotz frame) function to the right
    half-plane frame: g(s) = -i * f(i s).  Inverse of rotate_to_nevanlinna."""
    d = f.d
    num = f.num.scale_variables([1j] * d).scaled(-1j)
    den = f.den.scale_variables([1j] * d)
    return RationalMatrixFunction(num, den)


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


def _trim_leading(u, tol):
    n = len(u)
    while n > 0 and abs(u[n - 1]) <= tol:
        n -= 1
    return u[:n]


def _poly_mod(u, v):
    # remainder of u by monic v; ascending coefficient arrays
    r = np.array(u, dtype=np.complex128)
    while len(r) >= len(v):
        c = r[-1]
        if c != 0:
            r[len(r) - len(v):] -= c * v
        r = r[:-1]
    return r


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
        w = _trim_leading(w, drop_tol * mx)
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
        r = _trim_leading(r, drop_tol * scale)
        if r.size == 0:
            return len(v) - 1
        u, v = v, r / r[-1]


def _restrict_to_line(p, a, b):
    """Univariate coefficients (ascending in t) of the scalar p on z = a + t b."""
    if p.is_zero():
        return np.zeros(1, dtype=np.complex128)
    out = np.zeros(p.total_degree() + 1, dtype=np.complex128)
    for e, arr in p.ordered_terms():
        mono = np.ones(1, dtype=np.complex128)
        for k, ek in enumerate(e):
            lin = np.array([a[k], b[k]], dtype=np.complex128)
            for _ in range(ek):
                mono = np.convolve(mono, lin)
        out[: len(mono)] += arr[0, 0] * mono
    return out


def coprime_probe(f, lines=8, seed=0xDA71):
    """Probe whether numerator and denominator share a polynomial factor.

    Each matrix entry of the numerator (plus one random compression
    eta * num * eta^*) is restricted together with the denominator to
    random complex lines; a common factor forces a nontrivial univariate
    gcd on every line.  The result is evidence, not a certificate:
    "coprime-probable" when every scalarization has some line with gcd
    degree 0, "common-factor-found" when every line and scalarization has
    gcd degree >= 1, otherwise "inconclusive".
    """
    num, den = f.num, f.den
    d = f.d
    rng = np.random.default_rng(seed)

    def draw_vec():
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)

    scalarizations = [
        num.entry(i, j)
        for i in range(f.m)
        for j in range(f.m)
        if not num.entry(i, j).is_zero()
    ]
    if not scalarizations:
        scalarizations = [MatrixPoly.zero(d, 1)]
    else:
        for _ in range(20):
            eta = rng.standard_normal(f.m) + 1j * rng.standard_normal(f.m)
            compressed = num.quadratic_form(eta)
            if not compressed.is_zero():
                scalarizations.append(compressed)
                break

    num_scale = max(num.max_coeff_magnitude(), 1e-300)
    den_scale = max(den.max_coeff_magnitude(), 1e-300)
    degrees = np.zeros((len(scalarizations), lines), dtype=int)
    per_line = []
    for ln in range(lines):
        for attempt in range(20):
            a, b = draw_vec(), draw_vec()
            qv = _restrict_to_line(den, a, b)
            if np.abs(qv).max() <= 1e-14 * den_scale and den.total_degree() > 0:
                continue
            svs = [_restrict_to_line(s, a, b) for s in scalarizations]
            bad = any(
                np.abs(sv).max() <= 1e-14 * num_scale and not s.is_zero()
                for sv, s in zip(svs, scalarizations)
            )
            if not bad:
                break
        else:
            raise DegenerateLine("could not draw a nondegenerate restriction line")
        for si, sv in enumerate(svs):
            degrees[si, ln] = _gcd_degree(sv, qv)
        per_line.append(int(degrees[:, ln].min()))

    if np.all(degrees >= 1):
        verdict = "common-factor-found"
    elif all(np.any(degrees[si] == 0) for si in range(len(scalarizations))):
        verdict = "coprime-probable"
    else:
        verdict = "inconclusive"
    return CoprimeVerdict(verdict, lines, tuple(per_line), seed)
