import numpy as np
import pytest

from darlington.linalg import hermitian_extreme_eigs, hermitian_min_eig_many


def test_batched_matches_single():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    hs = a + np.conj(np.swapaxes(a, -1, -2))
    batched = hermitian_min_eig_many(hs)
    for k in range(6):
        assert batched[k] == pytest.approx(np.linalg.eigvalsh(hs[k])[0])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_extremes_match_lapack_across_scales(m):
    # scales from 1e-150 to 1e150, and nearly singular PSD matrices v v^H + eps I
    rng = np.random.default_rng(m)
    scales = 10.0 ** rng.uniform(-150, 150, 400)
    a = rng.standard_normal((400, m, m)) + 1j * rng.standard_normal((400, m, m))
    herm = (a + np.conj(np.swapaxes(a, 1, 2))) * scales[:, None, None]
    v = a[:, :, :1]
    psd = (v @ np.conj(np.swapaxes(v, 1, 2)) + 1e-13 * np.eye(m)) * scales[:, None, None]
    for hs in (herm, psd):
        lo, hi = hermitian_extreme_eigs(hs)
        ref = np.linalg.eigvalsh(hs)
        top = np.abs(ref).max(axis=1)
        assert np.all(np.abs(lo - ref[:, 0]) <= 1e-14 * top)
        assert np.all(np.abs(hi - ref[:, -1]) <= 1e-14 * top)
        assert np.array_equal(hermitian_min_eig_many(hs), lo)
        if m == 1:  # the diagonal, bit for bit
            assert np.array_equal(lo, ref[:, 0]) and np.array_equal(hi, ref[:, 0])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_root_of_gram_top_eigenvalue_is_the_spectral_norm(m):
    rng = np.random.default_rng(10 + m)
    scales = 10.0 ** rng.uniform(-100, 100, 300)
    f = (rng.standard_normal((300, m, m)) + 1j * rng.standard_normal((300, m, m))) \
        * scales[:, None, None]
    norms = np.sqrt(hermitian_extreme_eigs(np.einsum("nki,nkj->nij", f.conj(), f))[1])
    ref = np.linalg.svd(f, compute_uv=False)[:, 0]
    assert np.all(np.abs(norms - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_non_finite_rows_give_nan(m, bad):
    hs = np.tile(np.eye(m, dtype=np.complex128), (3, 1, 1))
    hs[1, m - 1, 0] = bad
    lo, hi = hermitian_extreme_eigs(hs)
    assert np.isnan(lo[1]) and np.isnan(hi[1])
    assert np.array_equal(lo[[0, 2]], [1.0, 1.0]) and np.array_equal(hi[[0, 2]], [1.0, 1.0])


def test_two_by_two_does_not_overflow_where_the_trace_would():
    big = np.finfo(float).max
    lo, hi = hermitian_extreme_eigs(np.array([[[big, 0], [0, big]], [[big, 0], [0, -big]]]))
    assert np.array_equal(lo, [big, -big]) and np.array_equal(hi, [big, big])


def test_small_eigenvalue_keeps_its_relative_accuracy():
    # the difference mid - radius would lose the small one: 1.2345678968e-7
    a, d = 1.2345678901234567e-7, 31.41592653589793
    lo, hi = hermitian_extreme_eigs(np.array([[[a, 0], [0, d]], [[0.0, 0], [0, 0]]]))
    assert abs(lo[0] - a) <= 1e-15 * a and hi[0] == d
    assert lo[1] == 0.0 and hi[1] == 0.0
