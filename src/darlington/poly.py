"""Sparse multivariate polynomials with complex matrix coefficients.

A polynomial in d variables with m x m matrix coefficients is a map from
exponent tuples (length d, non-negative ints) to (m, m) complex arrays.
m = 1 covers scalar polynomials; the same type carries both the matrix
numerators and the scalar denominators used elsewhere.

The coefficients live in one read-only (T, m, m) stack, and ``terms`` is a
read-only mapping from each exponent tuple to its view into that stack.
The constructor copies the coefficients into a fresh stack and validates it
in one pass: every coefficient finite, exact-zero terms dropped, no
exponent tuple twice.  Arithmetic works on whole stacks and is bit-identical
to adding and multiplying term by term in Python, down to the order of the
terms and the sign of zero: each pair of terms gives the same matmul or
broadcast multiply, and products that land on one exponent are added one
after another in the order they appear, starting from the first.

Terms are kept sparse: a coefficient is dropped only when it is exactly
zero after arithmetic; nothing is purged by tolerance.  Instances are
immutable, which is what makes the evaluation plan safe to cache: it is
built on the first evaluation and kept for the life of the instance.

``terms`` iterates in construction order; ``ordered_terms``, the leading
coefficient, evaluation and serialization use graded-lex, highest first.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

# numpy's overflow, invalid and divide warnings off, for code that drops the
# values that overflow or raises an error naming them; a decorator only, as
# numpy refuses a second ``with`` on one errstate
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


class DimensionMismatch(ValueError):
    """Operands disagree in variable count or matrix size, or an input has the
    wrong variable count, matrix size or coefficient field for its use."""


class NonFiniteCoefficient(ValueError):
    """A coefficient is infinite or NaN, as when an arithmetic step overflowed."""


def _grlex_key(exps):
    return (sum(exps), exps)


class MatrixPoly:
    __slots__ = ("d", "m", "terms", "_coeffs", "_plan")

    def __init__(self, d, m, terms):
        if d < 0 or m < 1:
            raise ValueError("need d >= 0 and m >= 1")
        d, m = int(d), int(m)
        keys = []
        coeffs = np.empty((len(terms), m, m), dtype=np.complex128)
        for exps, coeff in terms.items():
            exps = tuple(map(int, exps))
            if len(exps) != d:
                raise DimensionMismatch(
                    "exponent tuple %r has length %d, expected %d" % (exps, len(exps), d)
                )
            if d and min(exps) < 0:
                raise ValueError("negative exponent in %r" % (exps,))
            shape = () if isinstance(coeff, (int, float, complex)) else np.shape(coeff)
            # a scalar is a 1 x 1 coefficient; it must not broadcast to a larger one
            if shape != (m, m) and (shape or m != 1):
                raise DimensionMismatch(
                    "coefficient shape %r at %r, expected (%d, %d)" % (shape, exps, m, m)
                )
            coeffs[len(keys)] = coeff
            keys.append(exps)
        self._freeze(d, m, keys, coeffs, distinct=False)

    @classmethod
    def _from_stack(cls, d, m, keys, coeffs):
        """The polynomial with terms ``keys[i] -> coeffs[i]``: the internal
        path by which the library builds every polynomial it computes itself.

        The caller guarantees what ``__init__`` checks term by term: the keys
        are distinct tuples of d non-negative ints, and ``coeffs`` is a
        (T, m, m) complex128 array that nothing else writes to (it is frozen
        in place).  ``_freeze`` still rejects a non-finite coefficient,
        naming its exponent, and drops exact-zero terms.
        """
        p = object.__new__(cls)
        p._freeze(d, m, keys, coeffs)
        return p

    def _freeze(self, d, m, keys, coeffs, distinct=True):
        """The single validation pass over the stack, then the read-only slots."""
        # count_nonzero over the whole stack is the cheap test; the per-term
        # reductions run only when it finds something
        flat = coeffs.reshape(len(keys), m * m)
        finite = np.isfinite(flat)
        if np.count_nonzero(finite) < finite.size:
            bad = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise NonFiniteCoefficient("non-finite coefficient at %r" % (keys[bad],))
        if np.count_nonzero(flat) < flat.size:
            nonzero = flat.any(axis=1)
            keys = [k for k, keep in zip(keys, nonzero.tolist()) if keep]
            coeffs = coeffs[nonzero]
        if not distinct and len(set(keys)) < len(keys):
            seen = set()
            for exps in keys:
                if exps in seen:
                    raise ValueError("duplicate exponent tuple %r" % (exps,))
                seen.add(exps)
        coeffs.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", MappingProxyType(dict(zip(keys, coeffs))))
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_plan", None)

    @classmethod
    def _collect(cls, d, m, keys, values):
        """The polynomial whose coefficient at e is the sum of the values[i]
        with keys[i] == e.  Exponents keep the order in which they first
        appear; each sum starts from its first value and adds the others one
        at a time, in order (``np.add.at`` is unbuffered and goes in index
        order)."""
        index, first, rest, rest_group = {}, [], [], []
        for i, exps in enumerate(keys):
            g = index.setdefault(exps, len(first))
            if g == len(first):
                first.append(i)
            else:
                rest.append(i)
                rest_group.append(g)
        if not rest:
            return cls._from_stack(d, m, keys, values)
        # index with arrays: numpy converts an index list element by element
        out = values[np.array(first)]
        slots = np.array(rest_group)
        if m > 1:
            # add.at over a flat array: per-index (m, m) blocks take its slow path
            slots = (slots[:, None] * (m * m) + np.arange(m * m)).ravel()
        np.add.at(out.reshape(-1), slots, values[np.array(rest)].reshape(-1))
        return cls._from_stack(d, m, list(index), out)

    @staticmethod
    def _aligned(polys):
        """The exponents of ``polys`` (one or more, of one m) in order of first
        appearance, and a fresh (P, T, m, m) stack whose [k, j] is polys[k]'s
        coefficient at keys[j], 0 where polys[k] has no such term."""
        keys = list(dict.fromkeys(e for p in polys for e in p.terms))
        col = {e: j for j, e in enumerate(keys)}
        stack = np.zeros((len(polys), len(keys)) + polys[0]._coeffs.shape[1:], dtype=np.complex128)
        for k, p in enumerate(polys):
            stack[k, [col[e] for e in p.terms]] = p._coeffs
        return keys, stack

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPoly is immutable")

    def __reduce__(self):
        # rebuild through __init__: slot state cannot be restored past
        # __setattr__, and the copy builds its own evaluation plan
        return (MatrixPoly, (self.d, self.m, dict(self.terms)))

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
        return cls(d, 1, coeffs)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self):
        return not self.terms

    def _grlex_order(self):
        """Rows of the coefficient stack in graded-lex order, highest first."""
        keys = list(self.terms)
        return sorted(range(len(keys)), key=lambda i: _grlex_key(keys[i]), reverse=True)

    def _exponents(self):
        """The exponent tuples as a (T, d) integer array, rows in stack order."""
        return np.array(list(self.terms), dtype=np.int64).reshape(len(self.terms), self.d)

    def ordered_terms(self):
        """Terms as (exponents, coefficient) pairs, graded-lex highest first."""
        keys = list(self.terms)
        return [(keys[i], self._coeffs[i]) for i in self._grlex_order()]

    def leading_coefficient(self):
        """First (graded-lex highest) nonzero coefficient; entry [0,0] for scalars."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def max_coeff_magnitude(self):
        if self.is_zero():
            return 0.0
        return float(np.abs(self._coeffs).max())

    def total_degree(self):
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

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
        return MatrixPoly._collect(self.d, self.m, list(self.terms) + list(other.terms),
                                   np.concatenate((self._coeffs, other._coeffs)))

    def __neg__(self):
        return MatrixPoly._from_stack(self.d, self.m, list(self.terms), -self._coeffs)

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
        prods, sums = self._products(other)
        return MatrixPoly._collect(self.d, prods.shape[-1], list(map(tuple, sums.tolist())), prods)

    def _products(self, other):
        """The terms of self * other before they are collected: the (T, m, m)
        stack of every product of a term of self with a term of other, i-major
        (a matmul for equal m, else the scalar factor broadcast), and the
        (T, d) exponent sums."""
        m = max(self.m, other.m)
        left, right = self._coeffs[:, None], other._coeffs[None, :]
        prods = np.matmul(left, right) if self.m == other.m else left * right
        sums = self._exponents()[:, None] + other._exponents()[None, :]
        return prods.reshape(-1, m, m), sums.reshape(len(self.terms) * len(other.terms), self.d)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        return MatrixPoly._from_stack(self.d, self.m, list(self.terms),
                                      self._coeffs * complex(c))

    def divided(self, c):
        """Every coefficient entry over the nonzero scalar c.

        An entry equal to c gives exactly 1 (with imaginary part +0), and for
        a real c every quotient is correctly rounded, its real and imaginary
        parts divided apart: numpy's complex division promises neither
        (``7.3 / 7.3`` can give 0.9999999999999999).
        """
        c, a = complex(c), self._coeffs
        if c.imag == 0.0:
            out = np.empty_like(a)
            out.real, out.imag = a.real / c.real, a.imag / c.real
        else:
            out = a / c
        out[a == c] = 1.0
        return MatrixPoly._from_stack(self.d, self.m, list(self.terms), out)

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, z):
        """Value at a point, as an (m, m) array.  z: length-d sequence."""
        return self.evaluate_many(np.reshape(np.asarray(z, dtype=np.complex128), (1, -1)))[0]

    def _evaluation_plan(self):
        """``(coeffs, exps)``, built once: the (T, m, m) coefficient stack and
        the (T, d) exponent array, rows in graded-lex order, highest first."""
        if self._plan is None:
            order = self._grlex_order()
            object.__setattr__(self, "_plan", (self._coeffs[order], self._exponents()[order]))
        return self._plan

    def evaluate_many(self, Z):
        """Vectorized evaluation.  Z: (n, d) array -> (n, m, m) array.

        One product of the ``monomials`` table with the coefficient stack:
        the same bytes from run to run at a fixed BLAS thread count, and
        within ``1e-14 * sum_t |c_t| |z ** e_t|`` of adding the terms one by
        one, but not bit-identical to that loop (the product sums in its own
        order).
        """
        mono, coeffs = self.monomials(Z), self._evaluation_plan()[0]
        return (mono.T @ coeffs.reshape(len(coeffs), self.m ** 2)).reshape(-1, self.m, self.m)

    def monomials(self, Z):
        """Every term's monomial at every point, as a fresh (T, n) array, terms
        in plan order.  Z: (n, d) array.  Each later variable's factors, taken
        from a power table, are multiplied into the first's in place (not a
        ``prod``: last bits differ).  Row r is bit for bit the same whatever
        batch Z[r] shares."""
        Z = np.asarray(Z, dtype=np.complex128)
        if Z.ndim != 2 or Z.shape[1] != self.d:
            raise DimensionMismatch("expected point array of shape (n, %d)" % self.d)
        exps = self._evaluation_plan()[1]
        if not self.d:
            return np.ones((len(exps), len(Z)), dtype=np.complex128)
        pw = np.ones((int(exps.max(initial=0)) + 1,) + Z.shape, dtype=np.complex128)
        for k in range(1, len(pw)):
            np.multiply(pw[k - 1], Z, out=pw[k])
        out = pw[exps[:, 0], :, 0]
        for k in range(1, self.d):
            out *= pw[exps[:, k], :, k]
        return out

    # ------------------------------------------------------------------
    # structure maps

    def bar_reflect(self):
        """The polynomial z -> P(conj(z))^*, i.e. conjugate-transpose every coefficient.

        Fixed points are exactly the polynomials with Hermitian coefficients;
        they take Hermitian values on real points.
        """
        return MatrixPoly._from_stack(self.d, self.m, list(self.terms),
                                      self._coeffs.conj().transpose(0, 2, 1).copy())

    def has_hermitian_coeffs(self):
        """Exact comparison of stored values (no tolerance)."""
        return np.array_equal(self._coeffs, self._coeffs.conj().transpose(0, 2, 1))

    def has_real_coeffs(self):
        """Exact comparison of stored values (no tolerance)."""
        return bool(np.all(self._coeffs.imag == 0.0))

    def substitute_last(self, c):
        """Substitute the constant c for the last variable; drops to d-1 variables."""
        if self.d < 1:
            raise DimensionMismatch("no variable to substitute in a 0-variable polynomial")
        c = complex(c)
        keys = list(self.terms)
        order = self._grlex_order()
        powers = np.array([c ** keys[i][-1] if keys[i][-1] else 1.0 for i in order],
                          dtype=np.complex128)
        values = self._coeffs[order] * powers[:, None, None]
        return MatrixPoly._collect(self.d - 1, self.m, [keys[i][:-1] for i in order], values)

    def scale_variables(self, factors):
        """Substitute z_k -> factors[k] * z_k; coefficients pick up prod factors[k]**e_k."""
        factors = [complex(f) for f in factors]
        if len(factors) != self.d:
            raise DimensionMismatch("expected %d scale factors, got %d" % (self.d, len(factors)))
        mults = []
        for e in self.terms:
            mult = 1.0 + 0j
            for f, ek in zip(factors, e):
                if ek:
                    mult *= f ** ek
            mults.append(mult)
        mults = np.array(mults, dtype=np.complex128)
        return MatrixPoly._from_stack(self.d, self.m, list(self.terms),
                                      self._coeffs * mults[:, None, None])

    def append_variable(self):
        """Reinterpret in d+1 variables; the new last variable does not occur."""
        return MatrixPoly._from_stack(self.d + 1, self.m, [e + (0,) for e in self.terms],
                                      self._coeffs)

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

    __hash__ = None

    def __repr__(self):
        return "MatrixPoly(d=%d, m=%d, %d terms, degree %d)" % (
            self.d,
            self.m,
            len(self.terms),
            self.total_degree(),
        )
