import copy
import pickle

import numpy as np
import pytest

from darlington import (
    MatrixPoly,
    NearPole,
    RationalMatrixFunction,
    coprime_probe,
    from_entries,
    identity_equal,
    rotate_to_nevanlinna,
    rotate_to_positive_real,
)


def sp(d, coeffs):
    return MatrixPoly.from_scalar_terms(d, coeffs)


def one(d):
    return MatrixPoly.constant(d, 1.0)


def test_requires_scalar_nonzero_denominator():
    with pytest.raises(ValueError):
        RationalMatrixFunction(one(1), MatrixPoly.zero(1))
    with pytest.raises(Exception):
        RationalMatrixFunction(one(1), MatrixPoly.constant(1, np.eye(2), m=2))


def test_dimensions_must_agree():
    with pytest.raises(Exception):
        RationalMatrixFunction(one(2), one(1))


def test_eval_and_pole_floor():
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0}))  # 1/z
    assert f.eval((2.0,))[0, 0] == pytest.approx(0.5)
    with pytest.raises(NearPole):
        f.eval((1e-15,))


def test_eval_many_flags_poles():
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0}))
    vals, ok = f.eval_many(np.array([[2.0], [0.0], [-4.0]], dtype=complex))
    assert list(ok) == [True, False, True]
    assert vals[0, 0, 0] == pytest.approx(0.5)
    assert vals[2, 0, 0] == pytest.approx(-0.25)


def test_normalize_leading_denominator_coefficient():
    f = RationalMatrixFunction(sp(1, {(0,): 6.0}), sp(1, {(1,): 3.0, (0,): -3j}))
    g = f.normalize()
    assert g.normalized
    _, lead = g.den.leading_coefficient()
    assert lead[0, 0] == 1.0
    assert identity_equal(f, g)
    again = g.normalize()
    assert again.num == g.num and again.den == g.den


def test_identity_equal_cross_multiplies():
    # 1/z and 2/(2z) agree as functions though coefficients differ
    f = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0}))
    h = RationalMatrixFunction(sp(1, {(0,): 2.0}), sp(1, {(1,): 2.0}))
    assert identity_equal(f, h)
    k = RationalMatrixFunction(one(1), sp(1, {(1,): 1.0, (0,): 1e-6}))
    assert not identity_equal(f, k)
    assert not identity_equal(f, RationalMatrixFunction(one(2), sp(2, {(1, 0): 1.0})))


def test_compress_matches_pointwise():
    rng = np.random.default_rng(0)
    num = MatrixPoly(1, 2, {(1,): rng.standard_normal((2, 2)), (0,): np.eye(2)})
    f = RationalMatrixFunction(num, sp(1, {(1,): 1.0, (0,): 1j}))
    eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = f.compress(eta)
    z = (0.7 + 0.4j,)
    np.testing.assert_allclose(
        g.eval(z)[0, 0], eta @ f.eval(z) @ eta.conj(), rtol=1e-12
    )


def test_from_entries_matches_entrywise():
    a = RationalMatrixFunction(sp(1, {(1,): 1.0}), sp(1, {(0,): 1.0}))  # z
    b = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))  # -1/(z+i)
    c = RationalMatrixFunction(sp(1, {(0,): 1.0}), sp(1, {(1,): 2.0}))  # 1/(2z)
    d = RationalMatrixFunction(sp(1, {(2,): 1.0}), sp(1, {(0,): 1.0}))  # z^2
    f = from_entries([[a, b], [c, d]])
    assert f.m == 2
    z = (0.9 + 0.3j,)
    v = f.eval(z)
    assert v[0, 0] == pytest.approx(a.eval(z)[0, 0])
    assert v[0, 1] == pytest.approx(b.eval(z)[0, 0])
    assert v[1, 0] == pytest.approx(c.eval(z)[0, 0])
    assert v[1, 1] == pytest.approx(d.eval(z)[0, 0])


def test_from_entries_rejects_ragged():
    a = RationalMatrixFunction(one(1), one(1))
    with pytest.raises(ValueError):
        from_entries([[a, a], [a]])


def test_rotations_are_inverse_and_map_frames():
    # f(z) = -1/(z+i) has nonnegative imaginary part above the real axis;
    # its rotation g(s) = -i f(is) = 1/(s+1) has nonnegative real part for Re s > 0
    f = RationalMatrixFunction(sp(1, {(0,): -1.0}), sp(1, {(1,): 1.0, (0,): 1j}))
    g = rotate_to_positive_real(f)
    np.testing.assert_allclose(g.eval((1.0,))[0, 0], 0.5, atol=1e-14)
    s = 0.3 + 2.0j
    np.testing.assert_allclose(g.eval((s,))[0, 0], -1j * f.eval((1j * s,))[0, 0], rtol=1e-12)
    back = rotate_to_nevanlinna(g)
    assert identity_equal(back, f)


def test_rotation_roundtrip_matrix():
    rng = np.random.default_rng(1)
    num = MatrixPoly(2, 2, {
        (1, 0): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        (0, 1): rng.standard_normal((2, 2)),
        (0, 0): rng.standard_normal((2, 2)),
    })
    den = sp(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 1j})
    f = RationalMatrixFunction(num, den)
    assert identity_equal(rotate_to_positive_real(rotate_to_nevanlinna(f)), f)
    assert identity_equal(rotate_to_nevanlinna(rotate_to_positive_real(f)), f)


def test_coprime_probe_finds_planted_factor():
    # z(z+1) / z shares the factor z
    f = RationalMatrixFunction(sp(1, {(2,): 1.0, (1,): 1.0}), sp(1, {(1,): 1.0}))
    v = coprime_probe(f)
    assert v.verdict == "common-factor-found"
    assert all(g >= 1 for g in v.gcd_degree_per_line)


def test_coprime_probe_finds_two_variable_factor():
    num = sp(2, {(2, 0): 1.0, (0, 0): 1.0}) * sp(2, {(1, 0): 1.0, (0, 1): 1.0})
    den = sp(2, {(2, 0): 1.0, (0, 0): 1.0})
    v = coprime_probe(RationalMatrixFunction(num, den))
    assert v.verdict == "common-factor-found"


def test_coprime_probe_clears_coprime_pair():
    f = RationalMatrixFunction(sp(2, {(1, 0): 1.0}), sp(2, {(0, 1): 1.0}))  # z1/z2
    assert coprime_probe(f).verdict == "coprime-probable"


def test_coprime_probe_deterministic():
    f = RationalMatrixFunction(sp(1, {(2,): 1.0, (1,): 1.0}), sp(1, {(1,): 1.0}))
    a = coprime_probe(f, seed=5)
    b = coprime_probe(f, seed=5)
    assert a == b
    assert a.to_dict()["seed"] == 5


def test_immutable():
    f = RationalMatrixFunction(one(1), one(1))
    with pytest.raises(AttributeError):
        f.num = one(1)


def test_copy_and_pickle():
    f = RationalMatrixFunction(sp(1, {(1,): 2.0}), sp(1, {(1,): 1.0, (0,): 1j})).normalize()
    f.eval_many(np.ones((1, 1)))
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert (g.num, g.den, g.normalized) == (f.num, f.den, True)
    for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g.num._plan is None and g.den._plan is None
