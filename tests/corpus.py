"""Shared fixtures: a catalogue of upper-half-plane functions with known
class membership, pairs of real polynomials with known stability of
their combined/pencil/member readings, and seeded RLC ladders, whose
impedances are positive-real.

Everything here is deterministic; seeded items draw from their own
generator so order of use cannot change them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from darlington.poly import MatrixPoly
from darlington.rational import RationalMatrixFunction


def sp(d, coeffs):
    """Scalar polynomial from {exponent tuple: complex}."""
    return MatrixPoly.from_scalar_terms(d, coeffs)


def one(d):
    return MatrixPoly.constant(d, 1.0)


def rmf(num, den):
    return RationalMatrixFunction(num, den)


def signed_zero_poly(rng, d, m, nterms, max_deg=2):
    """Small-integer coefficients, so that sums cancel to exact zeros, with
    +0.0 and -0.0 in both parts and some non-integer entries."""
    terms = {}
    for _ in range(nterms):
        e = tuple(int(x) for x in rng.integers(0, max_deg + 1, size=d))
        coeff = np.empty((m, m), dtype=np.complex128)
        # set the parts apart: re + 1j * im would turn an imaginary -0.0 into +0.0
        coeff.real = rng.integers(-2, 3, (m, m))
        coeff.imag = rng.integers(-2, 3, (m, m))
        coeff.real[rng.random((m, m)) < 0.3] = -0.0
        coeff.imag[rng.random((m, m)) < 0.3] = -0.0
        coeff.imag[rng.random((m, m)) < 0.2] = rng.standard_normal()
        terms[e] = coeff
    return MatrixPoly(d, m, terms)


def _psd(rng, m):
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return r @ r.conj().T + 0.1 * np.eye(m)


def _herm(rng, m):
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (r + r.conj().T) / 2.0


@dataclass(frozen=True)
class FunctionCase:
    name: str
    f: RationalMatrixFunction
    cayley_inner: bool  # also real on real points (where defined)


def herglotz_cases():
    """Rational functions with nonnegative imaginary part on the upper
    poly-half-plane; cayley_inner marks the ones real on real points."""
    cases = []

    cases.append(FunctionCase("const-i", rmf(sp(1, {(0,): 1j}), one(1)), False))
    cases.append(FunctionCase("z1", rmf(sp(1, {(1,): 1.0}), one(1)), True))
    cases.append(FunctionCase("z1-plus-i", rmf(sp(1, {(1,): 1.0, (0,): 1j}), one(1)), False))
    cases.append(FunctionCase(
        "neg-inv-shifted", rmf(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j})), False))
    cases.append(FunctionCase(
        "neg-inv-sum2", rmf(sp(2, {(0, 0): -1.0}), sp(2, {(1, 0): 1.0, (0, 1): 1.0})), True))

    # diag(z1, -1/(z2+i)): matrix over the common denominator z2+i
    den6 = sp(2, {(0, 1): 1.0, (0, 0): 1j})
    num6 = MatrixPoly(2, 2, {
        (1, 1): np.diag([1.0, 0.0]),
        (1, 0): np.diag([1j, 0.0]),
        (0, 0): np.diag([0.0, -1.0]),
    })
    cases.append(FunctionCase("diag-mixed", rmf(num6, den6), False))

    rng = np.random.default_rng(42)
    a, b = rng.uniform(-2, 2), rng.uniform(0.1, 3)
    # a + b z - 1/(z+i) over denominator z+i
    num7 = sp(1, {(2,): b, (1,): a + b * 1j, (0,): a * 1j - 1.0})
    cases.append(FunctionCase("affine-minus-inv", rmf(num7, sp(1, {(1,): 1.0, (0,): 1j})), False))

    rng = np.random.default_rng(43)
    cases.append(FunctionCase(
        "affine-matrix-1var",
        rmf(MatrixPoly(1, 2, {(0,): _herm(rng, 2), (1,): _psd(rng, 2)}), one(1)),
        True))

    rng = np.random.default_rng(44)
    cases.append(FunctionCase(
        "affine-matrix-2var",
        rmf(MatrixPoly(2, 2, {(0, 0): _herm(rng, 2), (1, 0): _psd(rng, 2), (0, 1): _psd(rng, 2)}),
            one(2)),
        True))

    rng = np.random.default_rng(45)
    A, B1, B2, C = _herm(rng, 2), _psd(rng, 2), _psd(rng, 2), _psd(rng, 2)
    # (A + B1 z1 + B2 z2) - C/(z1+z2+i) over denominator z1+z2+i
    den10 = sp(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 1j})
    num10 = (MatrixPoly(2, 2, {(0, 0): A, (1, 0): B1, (0, 1): B2}) * den10
             - MatrixPoly.constant(2, C))
    cases.append(FunctionCase("mixed-matrix-2var", rmf(num10, den10), False))

    cases.append(FunctionCase(
        "neg-inv-sum3",
        rmf(sp(3, {(0, 0, 0): -1.0}),
            sp(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})),
        True))

    rng = np.random.default_rng(46)
    cases.append(FunctionCase(
        "affine-matrix-3var",
        rmf(MatrixPoly(3, 2, {
            (0, 0, 0): _herm(rng, 2),
            (1, 0, 0): _psd(rng, 2),
            (0, 1, 0): _psd(rng, 2),
            (0, 0, 1): _psd(rng, 2),
        }), one(3)),
        True))

    cases.append(FunctionCase(
        "sum2", rmf(sp(2, {(1, 0): 1.0, (0, 1): 1.0}), one(2)), True))

    rng = np.random.default_rng(47)
    c0 = float(rng.uniform(-1, 1))
    den14 = sp(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0, (0, 0, 0): 1j})
    num14 = sp(3, {(0, 0, 0): -1.0}) + sp(3, {(0, 0, 0): c0}) * den14
    cases.append(FunctionCase("const-minus-inv-3var", rmf(num14, den14), False))

    return cases


def herglotz_function(rng, d, m, poles):
    """A0 + sum_k B_k z_k - sum_j C_j / l_j(z) with A0 Hermitian, B_k and C_j
    positive definite and l_j = a.z + b + i c with a > 0, c > 0: Herglotz,
    over the common denominator prod_j l_j."""
    ells = []
    for _ in range(poles):
        terms = {(0,) * d: complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))}
        terms.update({tuple(int(i == k) for i in range(d)): rng.uniform(0.5, 2) for k in range(d)})
        ells.append(sp(d, terms))
    affine = {(0,) * d: _herm(rng, m)}
    affine.update({tuple(int(i == k) for i in range(d)): _psd(rng, m) for k in range(d)})
    den = one(d)
    for ell in ells:
        den = den * ell
    num = MatrixPoly(d, m, affine) * den
    for j in range(poles):
        rest = MatrixPoly.constant(d, _psd(rng, m))
        for ell in ells[:j] + ells[j + 1:]:
            rest = rest * ell
        num = num - rest
    return rmf(num, den)


@dataclass(frozen=True)
class PairCase:
    name: str
    p: MatrixPoly
    q: MatrixPoly
    stable_pair: bool       # no route finds a counterexample
    coprime: Optional[bool]  # None: not probed (e.g. q = 0)
    ratio_defined: bool      # q is nonzero, so Im(p/q) makes sense


def pair_cases():
    """Real pairs (p, q) whose combined / pencil / member readings agree.

    stable_pair True means p + iq has no upper zeros, the pencil
    p + z_new q is real-stable, and every rotated member is real-stable;
    False means all three readings are falsifiable.  The two planted
    non-coprime pairs (shared factor z1^2+1) are the documented cases
    where the ratio test legitimately disagrees with the pencil.
    """
    cases = []

    def add(name, p, q, stable, coprime=True, ratio=True):
        cases.append(PairCase(name, p, q, stable, coprime, ratio))

    add("linear", sp(1, {(1,): 1.0}), sp(1, {(0,): 1.0}), True)
    add("inverted", sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0}), True)
    add("reactance", sp(1, {(2,): 1.0, (0,): -1.0}), sp(1, {(1,): 1.0}), True)
    add("moebius", sp(1, {(1,): 2.0, (0,): 1.0}), sp(1, {(1,): 1.0, (0,): 1.0}), True)
    add("sum2-linear", sp(2, {(1, 0): 1.0, (0, 1): 1.0}), sp(2, {(0, 0): 1.0}), True)
    add("cot-sum", sp(2, {(1, 1): 1.0, (0, 0): -1.0}),
        sp(2, {(1, 0): 1.0, (0, 1): 1.0}), True)
    add("inverted-sum2", sp(2, {(0, 0): -1.0}),
        sp(2, {(1, 0): 1.0, (0, 1): 1.0}), True)
    add("sum3-linear", sp(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}),
        sp(3, {(0, 0, 0): 1.0}), True)
    add("inverted-sum3", sp(3, {(0, 0, 0): -1.0}),
        sp(3, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}), True)
    add("constant-only", sp(1, {(0,): 1.0}), MatrixPoly.zero(1, 1), True,
        coprime=None, ratio=False)

    add("square", sp(1, {(2,): 1.0}), sp(1, {(0,): 1.0}), False)
    add("crossed", sp(2, {(1, 0): 1.0}), sp(2, {(0, 1): 1.0}), False)
    add("product", sp(2, {(1, 1): 1.0}), sp(2, {(0, 0): 1.0}), False)
    add("shifted-square", sp(1, {(2,): 1.0, (0,): 1.0}), sp(1, {(0,): 1.0}), False)
    add("parabola", sp(2, {(2, 0): 1.0, (0, 1): -1.0}), sp(2, {(0, 0): 1.0}), False)
    add("cube", sp(1, {(3,): 1.0}), sp(1, {(0,): 1.0}), False)
    add("planted-factor-1var", sp(1, {(3,): 1.0, (1,): 1.0}),
        sp(1, {(2,): 1.0, (0,): 1.0}), False, coprime=False)
    add("planted-factor-2var",
        sp(2, {(3, 0): 1.0, (2, 1): 1.0, (1, 0): 1.0, (0, 1): 1.0}),
        sp(2, {(2, 0): 1.0, (0, 0): 1.0}), False, coprime=False)
    add("sum-square", sp(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0, (0, 0): 1.0}),
        sp(2, {(0, 0): 1.0}), False)
    add("product3", sp(3, {(1, 1, 1): 1.0}), sp(3, {(0, 0, 0): 1.0}), False)

    return cases


def planted_pairs(seed):
    """(p, q, stable) per d in 1-3 and degree 1-4, from the generator seeded
    [seed, 1]: the real and imaginary halves of a product of factors
    sum a_k z_k + b + i c with a_k, c > 0, so p + iq has no upper zero.
    Where d + degree is even, the first factor is z_1 - w with Im w > 0
    instead, which plants one."""
    rng = np.random.default_rng([seed, 1])
    pairs = []
    for d in (1, 2, 3):
        for deg in (1, 2, 3, 4):
            stable = (d + deg) % 2 == 1
            prod = MatrixPoly.constant(d, 1.0)
            for j in range(deg):
                if j == 0 and not stable:
                    a = [1.0] + [0.0] * (d - 1)
                    b = -complex(rng.uniform(-1, 1), rng.uniform(0.8, 1.25))
                else:
                    a = rng.uniform(0.8, 1.25, d)
                    b = complex(rng.uniform(-1, 1), rng.uniform(0.8, 1.25))
                terms = {(0,) * d: b}
                terms.update({tuple(int(i == k) for i in range(d)): a[k] for k in range(d)})
                prod = prod * sp(d, terms)
            pairs.append((MatrixPoly(d, 1, {e: c.real for e, c in prod.terms.items()}),
                          MatrixPoly(d, 1, {e: c.imag for e, c in prod.terms.items()}), stable))
    return pairs


@dataclass(frozen=True)
class Ladder:
    """A lossy RLC ladder closed on a load resistor, read from the input.

    Branch k is (resistive, reactive): a series impedance r + s l for even
    k, a shunt admittance g + s c for odd k.  The order is the number of
    reactive elements; every such ladder is positive-real.
    """

    branches: tuple
    load: float

    def impedance(self, s):
        """The input impedance at the points s, by the continued fraction."""
        z = np.full(np.shape(s), self.load, dtype=np.complex128)
        for k in reversed(range(len(self.branches))):
            res, rea = self.branches[k]
            z = z + (res + s * rea) if k % 2 == 0 else z / (1.0 + (res + s * rea) * z)
        return z

    def function(self):
        """The same impedance as one rational function num / den."""
        pp = np.polynomial.polynomial
        num, den = np.array([self.load]), np.array([1.0])
        for k in reversed(range(len(self.branches))):
            if k % 2 == 0:
                num = pp.polyadd(num, pp.polymul(self.branches[k], den))
            else:
                den = pp.polyadd(den, pp.polymul(self.branches[k], num))
        return rmf(sp(1, {(k,): c for k, c in enumerate(num)}),
                   sp(1, {(k,): c for k, c in enumerate(den)}))


def ladder_cases(seed, orders, per_order):
    """per_order seeded ladders of each order: reactive values log-uniform
    in [0.5, 2], resistive ones a fifth of that, load in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    cases = []
    for order in orders:
        for _ in range(per_order):
            vals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), (order + 1, 2)))
            vals[:, 0] *= 0.2
            cases.append(Ladder(tuple(map(tuple, vals[:order].tolist())), float(vals[order, 1])))
    return cases
