"""Sparse matrix-coefficient polynomial arithmetic."""

import copy
import pickle

import numpy as np
import pytest

from darlington import DimensionMismatch, MatrixPoly
from corpus import signed_zero_poly


def rand_poly(rng, d, m, nterms=4, max_deg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(int(x) for x in rng.integers(0, max_deg + 1, size=d))
        terms[e] = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return MatrixPoly(d, m, terms)


def naive_eval(p, z):
    acc = np.zeros((p.m, p.m), dtype=np.complex128)
    for e, a in p.terms.items():
        mono = 1.0 + 0j
        for zk, ek in zip(z, e):
            mono *= zk ** ek
        acc += a * mono
    return acc


def test_construction_and_terms():
    p = MatrixPoly(2, 1, {(1, 0): 2.0, (0, 0): 1j})
    assert p.d == 2 and p.m == 1
    assert p.terms[(1, 0)][0, 0] == 2.0
    assert not p.is_zero()


def test_scalar_coefficients_become_1x1():
    p = MatrixPoly(1, 1, {(0,): 3.0})
    assert p.terms[(0,)].shape == (1, 1)


def test_zero_coefficients_are_dropped():
    p = MatrixPoly(1, 1, {(1,): 0.0, (0,): 1.0})
    assert (1,) not in p.terms
    assert MatrixPoly(1, 1, {(0,): 0.0}).is_zero()


def test_rejects_bad_exponents():
    with pytest.raises(DimensionMismatch):
        MatrixPoly(2, 1, {(1,): 1.0})
    with pytest.raises(ValueError):
        MatrixPoly(1, 1, {(-1,): 1.0})


def test_rejects_bad_matrix_shape():
    with pytest.raises(DimensionMismatch):
        MatrixPoly(1, 2, {(0,): np.eye(3)})


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        MatrixPoly(1, 1, {(0,): np.nan})
    with pytest.raises(ValueError):
        MatrixPoly(1, 1, {(0,): np.array([[np.inf]])})


@pytest.mark.parametrize("m, bad_exps, bad_coeff, error, message", [
    (2, (3, 1), np.array([[1.0, np.nan], [0.0, 1.0]]), ValueError, "non-finite coefficient at"),
    (2, (3, 1), np.eye(3), DimensionMismatch, "coefficient shape (3, 3) at"),
    (2, (3, 1), 2.5, DimensionMismatch, "coefficient shape () at"),
    (1, (3, -1), 1.0, ValueError, "negative exponent in"),
    (1, (3, 1, 0), 1.0, DimensionMismatch, "exponent tuple"),
])
def test_bad_term_among_many_is_named(m, bad_exps, bad_coeff, error, message):
    # the stack is validated in one pass, but the error still names the term
    terms = {(k, 0): np.full((m, m), k + 1.0) for k in range(6)}
    terms[bad_exps] = bad_coeff
    terms.update({(0, k + 1): np.full((m, m), -1.0) for k in range(6)})
    with pytest.raises(error) as info:
        MatrixPoly(2, m, terms)
    assert message in str(info.value)
    assert repr(bad_exps) in str(info.value)


def test_rejects_exponents_that_coincide_as_integers():
    with pytest.raises(ValueError, match=r"duplicate exponent tuple \(1,\)"):
        MatrixPoly(1, 1, {(1.5,): 2.0, (1,): 3.0})


def test_accepts_mixed_scalar_and_1x1_coefficients():
    p = MatrixPoly(1, 1, {(2,): 2.0, (1,): np.array([[3j]]), (0,): np.complex128(-1.0)})
    assert list(p.terms) == [(2,), (1,), (0,)]
    assert [complex(a[0, 0]) for a in p.terms.values()] == [2.0, 3j, -1.0]


def test_accepts_transposed_view_coefficients():
    # non-contiguous arrays (conj().T views) must not trip validation
    a = (np.arange(4.0).reshape(2, 2) + 1j).conj().T
    p = MatrixPoly(1, 2, {(0,): a})
    assert np.array_equal(p.terms[(0,)], a)


def test_constructors():
    z = MatrixPoly.zero(2, m=3)
    assert z.is_zero() and z.m == 3
    c = MatrixPoly.constant(2, 5.0)
    assert c.evaluate((1j, 2j))[0, 0] == 5.0
    v = MatrixPoly.variable(3, 1)
    assert v.evaluate((7.0, 11.0, 13.0))[0, 0] == 11.0
    s = MatrixPoly.from_scalar_terms(1, {(2,): 1.0, (0,): -1.0})
    assert s.evaluate((3.0,))[0, 0] == 8.0


def test_grlex_descending_order():
    p = MatrixPoly.from_scalar_terms(
        2, {(0, 0): 1.0, (2, 0): 1.0, (1, 1): 1.0, (0, 1): 1.0, (1, 0): 1.0}
    )
    exps = [e for e, _ in p.ordered_terms()]
    assert exps == [(2, 0), (1, 1), (1, 0), (0, 1), (0, 0)]
    lead_e, lead_a = p.leading_coefficient()
    assert lead_e == (2, 0) and lead_a[0, 0] == 1.0


def test_degrees():
    p = MatrixPoly.from_scalar_terms(2, {(2, 1): 1.0, (0, 3): 1.0})
    assert p.total_degree() == 3
    assert MatrixPoly.zero(2).total_degree() == -1


def test_arithmetic_matches_pointwise():
    rng = np.random.default_rng(0)
    p = rand_poly(rng, 2, 2)
    q = rand_poly(rng, 2, 2)
    z = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    np.testing.assert_allclose((p + q).evaluate(z), p.evaluate(z) + q.evaluate(z), atol=1e-12)
    np.testing.assert_allclose((p - q).evaluate(z), p.evaluate(z) - q.evaluate(z), atol=1e-12)
    np.testing.assert_allclose((-p).evaluate(z), -p.evaluate(z), atol=1e-12)
    np.testing.assert_allclose(
        (p * q).evaluate(z), p.evaluate(z) @ q.evaluate(z), rtol=1e-12, atol=1e-10
    )


def test_scalar_broadcast_multiplication():
    rng = np.random.default_rng(1)
    s = rand_poly(rng, 2, 1)
    p = rand_poly(rng, 2, 3)
    z = (0.3 + 0.9j, -1.1 + 0.2j)
    np.testing.assert_allclose(
        (s * p).evaluate(z), s.evaluate(z)[0, 0] * p.evaluate(z), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose((2.5 * p).evaluate(z), 2.5 * p.evaluate(z), atol=1e-12)
    np.testing.assert_allclose(p.scaled(1j).evaluate(z), 1j * p.evaluate(z), atol=1e-12)


def test_incompatible_shapes_raise():
    p = MatrixPoly.zero(1, m=2)
    q = MatrixPoly.zero(2, m=2)
    with pytest.raises(DimensionMismatch):
        p + q
    with pytest.raises(DimensionMismatch):
        MatrixPoly.zero(1, m=2) * MatrixPoly.zero(1, m=3)


def test_evaluate_matches_naive():
    rng = np.random.default_rng(2)
    for d, m in [(1, 1), (2, 2), (3, 2)]:
        p = rand_poly(rng, d, m)
        z = tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        np.testing.assert_allclose(p.evaluate(z), naive_eval(p, z), rtol=1e-12, atol=1e-12)


def term_loop_evaluate_many(p, Z):
    """The per-call term loop that evaluate_many replaced, kept as its reference.

    Returns the values and, per point and entry, ``sum_t |c_t| |mono_t|``:
    the scale of the rounding that summing the terms in another order allows.
    """
    Z = np.asarray(Z, dtype=np.complex128)
    n = Z.shape[0]
    out = np.zeros((n, p.m, p.m), dtype=np.complex128)
    scale = np.zeros((n, p.m, p.m))
    for e, a in p.ordered_terms():
        mono = np.prod(Z ** np.array(e), axis=1) if p.d else np.ones(n, dtype=np.complex128)
        out += mono[:, None, None] * a[None, :, :]
        scale += np.abs(mono)[:, None, None] * np.abs(a)[None, :, :]
    return out, scale


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_evaluate_many_is_close_to_term_loop(d, m):
    rng = np.random.default_rng([d, m])
    polys = [MatrixPoly.zero(d, m)]
    for max_deg in (1, 2, 5):
        # at most max_deg + 1 distinct exponents per variable, so they repeat across terms
        polys += [rand_poly(rng, d, m, nterms=int(rng.integers(1, 16)), max_deg=max_deg)
                  for _ in range(3)]
    for p in polys:
        for n in (1, 2, 7, 60):   # n = 1 takes numpy's single-element loops
            Z = rng.uniform(-3, 3, (n, d)) + 1j * 10.0 ** rng.uniform(-12, 0, (n, d))
            Z[rng.random((n, d)) < 0.2] = 0.0
            Z[rng.random((n, d)) < 0.2] = rng.uniform(-3, 3)   # on the real axis
            ref, scale = term_loop_evaluate_many(p, Z)
            got = p.evaluate_many(Z)
            # the second call runs on the cached plan and gives the same bytes
            assert got.tobytes() == p.evaluate_many(Z).tobytes()
            if p.is_zero() or d == 0:
                assert np.array_equal(got, ref)
            else:
                assert np.all(np.abs(got - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_monomial_rows_do_not_depend_on_the_batch(d):
    rng = np.random.default_rng([d, 7])
    polys = [rand_poly(rng, d, 1, nterms=12, max_deg=max_deg) for max_deg in (1, 3, 6)]
    for p in polys:
        for n in (1, 2, 7, 60, 231):
            Z = rng.uniform(-3, 3, (n, d)) + 1j * rng.uniform(0.05, 3, (n, d))
            table = p.monomials(Z)
            for i in range(n):
                assert table[:, i].tobytes() == p.monomials(Z[i:i + 1])[:, 0].tobytes()


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_monomials_match_an_independent_power_product(d):
    rng = np.random.default_rng([d, 11])
    polys = [rand_poly(rng, d, 1, nterms=12, max_deg=max_deg) for max_deg in (1, 3, 6)]
    polys.append(MatrixPoly.constant(d, 2.5 - 1j))
    if d > 1:
        # every exponent column past the first is all zero
        polys.append(MatrixPoly.from_scalar_terms(d, {(k,) + (0,) * (d - 1): 1.0
                                                      for k in range(5)}))
    for p in polys:
        E = np.array([e for e, _ in p.ordered_terms()], dtype=np.int64).reshape(len(p.terms), d)
        for n in (0, 1, 231):
            Z = rng.uniform(-3, 3, (n, d)) + 1j * rng.uniform(0.05, 3, (n, d))
            ref = np.prod(Z[None] ** E[:, None], axis=2)
            table = p.monomials(Z)
            assert table.shape == (len(p.terms), n)
            if d == 0 or p.total_degree() == 0:
                assert np.array_equal(table, ref)
            else:
                assert np.all(np.abs(table - ref) <= 1e-14 * np.abs(ref))
            # a fresh array of its own: writing to it leaves the next call alone
            assert table.flags.owndata and table.flags.writeable
            first = table.copy()
            table[...] = np.nan
            assert p.monomials(Z).tobytes() == first.tobytes()


# The term loops that the stack arithmetic replaced, kept as its bitwise
# reference.  Each returns the term dict that the old constructor received;
# the constructor then dropped exact-zero terms.

def term_loop_mul(p, q):
    out = {}
    for e1, a1 in p.terms.items():
        for e2, a2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if p.m == q.m:
                prod = a1 @ a2
            elif p.m == 1:
                prod = a1[0, 0] * a2
            else:
                prod = a1 * a2[0, 0]
            out[e] = out[e] + prod if e in out else prod
    return out


def term_loop_add(p, q):
    out = {e: a for e, a in p.terms.items()}
    for e, a in q.terms.items():
        out[e] = out[e] + a if e in out else a
    return out


def term_loop_scaled(p, c):
    c = complex(c)
    return {e: a * c for e, a in p.terms.items()}


def term_loop_substitute_last(p, c):
    c = complex(c)
    out = {}
    for e, a in p.ordered_terms():
        base = e[:-1]
        coeff = a * (c ** e[-1] if e[-1] else 1.0)
        out[base] = out[base] + coeff if base in out else coeff
    return out


def assert_same_terms(got, ref_terms):
    """Same term order and the same coefficient bytes, signs of zero included."""
    ref = {e: a for e, a in ref_terms.items() if np.count_nonzero(a)}
    assert list(got.terms) == list(ref)
    for e, a in ref.items():
        assert got.terms[e].tobytes() == np.asarray(a, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_stack_arithmetic_is_bit_identical_to_term_loops(d, m):
    rng = np.random.default_rng([d, m, 21])
    polys = [MatrixPoly.zero(d, m), MatrixPoly.zero(d, 1)]
    for nterms in (1, 3, 8):
        polys += [signed_zero_poly(rng, d, m, nterms), signed_zero_poly(rng, d, 1, nterms),
                  rand_poly(rng, d, m, nterms=nterms, max_deg=2)]
    p = signed_zero_poly(rng, d, m, 5)
    polys += [p, -p, p.bar_reflect()]   # p + (-p) cancels to the zero polynomial
    if d:
        x, one = MatrixPoly.variable(d, 0), MatrixPoly.constant(d, 1.0)
        polys += [x + one, x - one]     # (x + 1)(x - 1) cancels the x term exactly
    for a in polys:
        for b in polys:
            if a.m == b.m or 1 in (a.m, b.m):   # scalar x matrix in both orders
                assert_same_terms(a * b, term_loop_mul(a, b))
            if a.m == b.m:
                assert_same_terms(a + b, term_loop_add(a, b))
        for c in (2.5, -0.0, 0.0, 1j, complex(rng.standard_normal(), rng.standard_normal())):
            assert_same_terms(a.scaled(c), term_loop_scaled(a, c))
            if d:
                assert_same_terms(a.substitute_last(c), term_loop_substitute_last(a, c))


def test_evaluate_wraps_evaluate_many():
    rng = np.random.default_rng(12)
    p = rand_poly(rng, 2, 2)
    z = (0.5 + 1j, -2.0 + 0.25j)
    assert np.array_equal(p.evaluate(z), p.evaluate_many([z])[0])
    assert MatrixPoly.constant(0, 3.0).evaluate([])[0, 0] == 3.0
    with pytest.raises(DimensionMismatch):
        p.evaluate((1.0,))


def test_evaluation_plan_is_built_once(monkeypatch):
    calls = []
    grlex_order = MatrixPoly._grlex_order
    monkeypatch.setattr(MatrixPoly, "_grlex_order",
                        lambda self: calls.append(self) or grlex_order(self))
    rng = np.random.default_rng(9)
    p, q = rand_poly(rng, 2, 2), rand_poly(rng, 2, 2)
    Z = rng.standard_normal((4, 2)) + 1j
    for _ in range(3):
        p.evaluate_many(Z)
        q.evaluate_many(Z[:2])
    assert calls == [p, q]


def test_evaluate_many_matches_single():
    rng = np.random.default_rng(3)
    p = rand_poly(rng, 2, 2)
    Z = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    vals = p.evaluate_many(Z)
    assert vals.shape == (5, 2, 2)
    for k in range(5):
        np.testing.assert_allclose(vals[k], p.evaluate(tuple(Z[k])), rtol=1e-12, atol=1e-12)


def test_bar_reflect_pointwise_identity():
    # reflected(z) == original(conj z) conjugate-transposed
    rng = np.random.default_rng(4)
    p = rand_poly(rng, 2, 2)
    r = p.bar_reflect()
    z = (0.4 + 0.7j, -0.2 + 1.3j)
    zc = tuple(np.conj(z))
    np.testing.assert_allclose(r.evaluate(z), p.evaluate(zc).conj().T, rtol=1e-12, atol=1e-12)
    assert r.bar_reflect() == p


def test_coefficient_reality_predicates():
    herm = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    p = MatrixPoly(1, 2, {(1,): herm})
    assert p.has_hermitian_coeffs() and not p.has_real_coeffs()
    asym = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q = MatrixPoly(1, 2, {(1,): asym})
    assert q.has_real_coeffs() and not q.has_hermitian_coeffs()
    r = MatrixPoly(1, 2, {(1,): np.eye(2) + 1e-300j * np.ones((2, 2))})
    assert not r.has_real_coeffs()  # exact, not tolerance-based


def test_substitute_last():
    rng = np.random.default_rng(5)
    p = rand_poly(rng, 3, 2)
    c = 0.3 - 0.8j
    q = p.substitute_last(c)
    assert q.d == 2
    z = (1.1 + 0.2j, -0.5 + 0.9j)
    np.testing.assert_allclose(q.evaluate(z), p.evaluate(z + (c,)), rtol=1e-12, atol=1e-12)


def test_scale_variables():
    rng = np.random.default_rng(6)
    p = rand_poly(rng, 2, 1)
    q = p.scale_variables([2.0, -1j])
    z = (0.7 + 0.1j, 1.2 - 0.4j)
    np.testing.assert_allclose(
        q.evaluate(z), p.evaluate((2.0 * z[0], -1j * z[1])), rtol=1e-12, atol=1e-12
    )


def test_append_variable_roundtrip():
    rng = np.random.default_rng(7)
    p = rand_poly(rng, 2, 2)
    q = p.append_variable()
    assert q.d == 3 and q.substitute_last(9.0) == p


def test_differentiate():
    p = MatrixPoly.from_scalar_terms(2, {(2, 1): 3.0, (0, 1): 1.0})
    dp = p.differentiate(0)
    assert dp == MatrixPoly.from_scalar_terms(2, {(1, 1): 6.0})
    with pytest.raises(ValueError):
        p.differentiate(2)


def test_equality_is_exact():
    p = MatrixPoly.from_scalar_terms(1, {(1,): 1.0})
    q = MatrixPoly.from_scalar_terms(1, {(1,): 1.0 + 1e-15})
    assert p != q


def test_immutable():
    p = MatrixPoly.from_scalar_terms(1, {(0,): 1.0})
    with pytest.raises(AttributeError):
        p.d = 2
    with pytest.raises(ValueError):
        p.terms[(0,)][0, 0] = 99.0  # stored coefficients are read-only
    with pytest.raises(TypeError):
        p.terms[(1,)] = np.eye(1)  # so is the term map, which the cached plan relies on
    with pytest.raises(TypeError):
        del p.terms[(0,)]
    assert p.terms[(0,)][0, 0] == 1.0
    assert [e for e, _ in p.terms.items()] == [(0,)]
    assert p.terms.keys() == MatrixPoly.from_scalar_terms(1, {(0,): 2.0}).terms.keys()


def test_copy_and_pickle_rebuild_without_the_plan():
    p = rand_poly(np.random.default_rng(3), 2, 2)
    p.evaluate_many(np.ones((1, 2)))
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and q is not p
        assert q._plan is None
        with pytest.raises(TypeError):
            q.terms[(9, 9)] = np.eye(2)
