"""Sparse multivariate polynomials with complex matrix coefficients.

A polynomial in d variables with m x m matrix coefficients is stored as a
map from exponent tuples (length d, non-negative ints) to (m, m) complex
arrays.  m = 1 covers scalar polynomials; the same type carries both the
matrix numerators and the scalar denominators used elsewhere.

Terms are kept sparse: a coefficient is dropped only when it is exactly
zero after arithmetic.  Tolerance-based purging is a separate, explicit
step (``clean``).  Instances are immutable: the coefficient arrays are
copied on construction and flagged read-only, and ``terms`` is a read-only
mapping.  That is what makes the evaluation plan safe to cache: it is built
on the first ``evaluate_many`` call and kept for the life of the instance.

The canonical term order everywhere (iteration, leading coefficient,
serialization) is graded lexicographic, highest first.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

__all__ = ["MatrixPoly", "DimensionMismatch"]


class DimensionMismatch(ValueError):
    """Operands disagree in variable count or matrix size."""


def _grlex_key(exps):
    return (sum(exps), exps)


class MatrixPoly:
    __slots__ = ("d", "m", "terms", "_plan")

    def __init__(self, d, m, terms):
        if d < 0 or m < 1:
            raise ValueError("need d >= 0 and m >= 1")
        clean_terms = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != d:
                raise DimensionMismatch(
                    "exponent tuple %r has length %d, expected %d" % (exps, len(exps), d)
                )
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            arr = np.array(coeff, dtype=np.complex128)
            if arr.shape == () and m == 1:
                arr = arr.reshape(1, 1)
            if arr.shape != (m, m):
                raise DimensionMismatch(
                    "coefficient shape %r, expected (%d, %d)" % (arr.shape, m, m)
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite coefficient at %r" % (exps,))
            if np.count_nonzero(arr) == 0:
                continue
            if exps in clean_terms:
                raise ValueError("duplicate exponent tuple %r" % (exps,))
            arr.flags.writeable = False
            clean_terms[exps] = arr
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "terms", MappingProxyType(clean_terms))
        object.__setattr__(self, "_plan", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, d, m=1):
        return cls(d, m, {})

    @classmethod
    def constant(cls, d, value, m=None):
        value = np.atleast_2d(np.array(value, dtype=np.complex128))
        if m is None:
            m = value.shape[0]
        return cls(d, m, {(0,) * d: value})

    @classmethod
    def variable(cls, d, k, m=1):
        """The monomial z_{k+1} (0-based k) times the m x m identity."""
        if not 0 <= k < d:
            raise ValueError("variable index %d out of range for d=%d" % (k, d))
        exps = tuple(1 if j == k else 0 for j in range(d))
        return cls(d, m, {exps: np.eye(m)})

    @classmethod
    def from_scalar_terms(cls, d, coeffs):
        return cls(d, 1, {e: np.array([[c]]) for e, c in coeffs.items()})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return self.m == 1

    def ordered_terms(self):
        """Terms as (exponents, coefficient) pairs, graded-lex highest first."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_grlex_key, reverse=True)]

    def leading_coefficient(self):
        """First (graded-lex highest) nonzero coefficient; entry [0,0] for scalars."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def max_coeff_magnitude(self):
        if self.is_zero():
            return 0.0
        return max(float(np.abs(a).max()) for a in self.terms.values())

    def total_degree(self):
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, k):
        if self.is_zero():
            return -1
        return max(e[k] for e in self.terms)

    def entry(self, i, j):
        """Scalar polynomial made of the (i, j) entry of every coefficient."""
        return MatrixPoly(self.d, 1, {e: a[i, j] for e, a in self.terms.items()})

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compat(self, other):
        if self.d != other.d:
            raise DimensionMismatch("variable counts differ: %d vs %d" % (self.d, other.d))

    def __add__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        self._check_compat(other)
        if self.m != other.m:
            raise DimensionMismatch("matrix sizes differ: %d vs %d" % (self.m, other.m))
        out = {e: a for e, a in self.terms.items()}
        for e, a in other.terms.items():
            out[e] = out[e] + a if e in out else a
        return MatrixPoly(self.d, self.m, out)

    def __neg__(self):
        return MatrixPoly(self.d, self.m, {e: -a for e, a in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        self._check_compat(other)
        # matrix*matrix needs equal sizes; a scalar factor broadcasts over the other
        if self.m != other.m and 1 not in (self.m, other.m):
            raise DimensionMismatch("matrix sizes differ: %d vs %d" % (self.m, other.m))
        m = max(self.m, other.m)
        out = {}
        for e1, a1 in self.terms.items():
            for e2, a2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if self.m == other.m:
                    prod = a1 @ a2
                elif self.m == 1:
                    prod = a1[0, 0] * a2
                else:
                    prod = a1 * a2[0, 0]
                out[e] = out[e] + prod if e in out else prod
        return MatrixPoly(self.d, m, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        c = complex(c)
        return MatrixPoly(self.d, self.m, {e: a * c for e, a in self.terms.items()})

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, z):
        """Value at a point, as an (m, m) array.  z: length-d sequence."""
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        if z.shape[0] != self.d:
            raise DimensionMismatch("point has %d coordinates, expected %d" % (z.shape[0], self.d))
        out = np.zeros((self.m, self.m), dtype=np.complex128)
        for e, a in self.ordered_terms():
            mono = 1.0 + 0j
            for zk, ek in zip(z, e):
                if ek:
                    mono *= zk ** ek
            out = out + a * mono
        return out

    def _evaluation_plan(self):
        """Coefficient stack and per-variable power table, built once.

        Returns ``(coeffs, powers)``: ``coeffs`` is the (T, m, m) stack of
        coefficients in graded-lex order, highest first, and ``powers[k]`` is
        ``(ks, inv)``: the distinct exponents of variable k as a complex
        column (``Z ** e`` computes in complex too) and, per term, the index
        of its exponent in ``ks``.
        """
        if self._plan is None:
            ordered = self.ordered_terms()
            exps = np.array([e for e, _ in ordered], dtype=np.int64).reshape(len(ordered), self.d)
            coeffs = np.array([a for _, a in ordered], dtype=np.complex128)
            coeffs = coeffs.reshape(len(ordered), self.m, self.m)
            powers = []
            for k in range(self.d):
                ks, inv = np.unique(exps[:, k], return_inverse=True)
                powers.append((ks.astype(np.complex128)[:, None], inv))
            object.__setattr__(self, "_plan", (coeffs, tuple(powers)))
        return self._plan

    def evaluate_many(self, Z):
        """Vectorized evaluation.  Z: (n, d) array -> (n, m, m) array.

        Bit-identical to adding ``coeff * prod(z ** e)`` term by term in
        graded-lex order.  Each distinct power is computed once per call, but
        every monomial is still a ``prod`` over a contiguous last axis of d
        factors, and every term is still multiplied and added on its own with
        the same broadcast shapes: numpy's vectorized complex multiply rounds
        differently from the scalar loop such a ``prod`` runs, and which of
        the two a product takes depends on the operands' shapes.
        """
        Z = np.asarray(Z, dtype=np.complex128)
        if Z.ndim != 2 or Z.shape[1] != self.d:
            raise DimensionMismatch("expected point array of shape (n, %d)" % self.d)
        coeffs, powers = self._evaluation_plan()
        n = Z.shape[0]
        factors = np.empty((len(coeffs), n, self.d), dtype=np.complex128)
        for k, (ks, inv) in enumerate(powers):
            factors[:, :, k] = (Z[None, :, k] ** ks)[inv]
        mono = factors.prod(axis=2)
        out = np.zeros((n, self.m, self.m), dtype=np.complex128)
        for j, a in enumerate(coeffs):
            out += mono[j, :, None, None] * a[None, :, :]
        return out

    # ------------------------------------------------------------------
    # structure maps

    def bar_reflect(self):
        """The polynomial z -> P(conj(z))^*, i.e. conjugate-transpose every coefficient.

        Fixed points are exactly the polynomials with Hermitian coefficients;
        they take Hermitian values on real points.
        """
        return MatrixPoly(self.d, self.m, {e: a.conj().T for e, a in self.terms.items()})

    def has_hermitian_coeffs(self):
        """Exact comparison of stored values (no tolerance)."""
        return all(np.array_equal(a, a.conj().T) for a in self.terms.values())

    def has_real_coeffs(self):
        """Exact comparison of stored values (no tolerance)."""
        return all(np.all(a.imag == 0.0) for a in self.terms.values())

    def substitute_last(self, c):
        """Substitute the constant c for the last variable; drops to d-1 variables."""
        if self.d < 1:
            raise DimensionMismatch("no variable to substitute in a 0-variable polynomial")
        c = complex(c)
        out = {}
        for e, a in self.ordered_terms():
            base = e[:-1]
            coeff = a * (c ** e[-1] if e[-1] else 1.0)
            out[base] = out[base] + coeff if base in out else coeff
        return MatrixPoly(self.d - 1, self.m, out)

    def scale_variables(self, factors):
        """Substitute z_k -> factors[k] * z_k; coefficients pick up prod factors[k]**e_k."""
        factors = [complex(f) for f in factors]
        if len(factors) != self.d:
            raise DimensionMismatch("expected %d scale factors, got %d" % (self.d, len(factors)))
        out = {}
        for e, a in self.terms.items():
            mult = 1.0 + 0j
            for f, ek in zip(factors, e):
                if ek:
                    mult *= f ** ek
            out[e] = a * mult
        return MatrixPoly(self.d, self.m, out)

    def append_variable(self):
        """Reinterpret in d+1 variables; the new last variable does not occur."""
        return MatrixPoly(self.d + 1, self.m, {e + (0,): a for e, a in self.terms.items()})

    def differentiate(self, k):
        """Partial derivative with respect to variable k (0-based)."""
        if not 0 <= k < self.d:
            raise ValueError("variable index %d out of range for d=%d" % (k, self.d))
        out = {}
        for e, a in self.terms.items():
            if e[k] == 0:
                continue
            ne = tuple(x - 1 if j == k else x for j, x in enumerate(e))
            out[ne] = a * e[k]
        return MatrixPoly(self.d, self.m, out)

    def quadratic_form(self, eta):
        """Scalar polynomial eta P eta^* for a length-m row vector eta."""
        eta = np.asarray(eta, dtype=np.complex128).reshape(-1)
        if eta.shape[0] != self.m:
            raise DimensionMismatch("eta has length %d, expected %d" % (eta.shape[0], self.m))
        if np.count_nonzero(eta) == 0:
            raise ValueError("eta must be nonzero")
        return MatrixPoly(
            self.d, 1, {e: complex(eta @ a @ eta.conj()) for e, a in self.terms.items()}
        )

    def clean(self, tol):
        """Drop terms whose largest entry magnitude is <= tol.  Explicit, never implicit."""
        return MatrixPoly(
            self.d, self.m, {e: a for e, a in self.terms.items() if np.abs(a).max() > tol}
        )

    # ------------------------------------------------------------------
    # comparison / display

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        if (self.d, self.m) != (other.d, other.m):
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(np.array_equal(a, other.terms[e]) for e, a in self.terms.items())

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None

    def equal_within(self, other, tol):
        """Entrywise comparison with absolute tolerance tol on every coefficient."""
        if (self.d, self.m) != (other.d, other.m):
            return False
        keys = set(self.terms) | set(other.terms)
        zero = np.zeros((self.m, self.m))
        for e in keys:
            a = self.terms.get(e, zero)
            b = other.terms.get(e, zero)
            if np.abs(a - b).max() > tol:
                return False
        return True

    def format(self, names=None):
        """Human-readable rendering, graded-lex highest first."""
        if self.is_zero():
            return "0"
        if names is None:
            names = ["z%d" % (k + 1) for k in range(self.d)]
        parts = []
        for e, a in self.ordered_terms():
            mono = "*".join(
                n if ek == 1 else "%s^%d" % (n, ek) for n, ek in zip(names, e) if ek
            )
            if self.m == 1:
                c = complex(a[0, 0])
                cs = "%.12g%+.12gi" % (c.real, c.imag)
                parts.append("(%s)%s" % (cs, "*" + mono if mono else ""))
            else:
                rows = "; ".join(
                    ", ".join("%.12g%+.12gi" % (v.real, v.imag) for v in row) for row in a
                )
                parts.append("[%s]%s" % (rows, "*" + mono if mono else ""))
        return " + ".join(parts)

    def __repr__(self):
        return "MatrixPoly(d=%d, m=%d, %d terms, degree %d)" % (
            self.d,
            self.m,
            len(self.terms),
            self.total_degree(),
        )
