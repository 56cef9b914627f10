import warnings

import numpy as np
import pytest

from darlington.linalg import (SCREEN_SEEDS, hermitian_extreme_eigs, hermitian_min_eig_many,
                               screened_min_eigs)


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


def _assert_screen_decides_like_lapack(hs):
    """screened_min_eigs keeps what a sampled report reads: the finite mask,
    the minimum and its first position, bit for bit; every other finite row
    stays above the minimum."""
    ref, got = hermitian_min_eig_many(hs), screened_min_eigs(hs)
    assert np.array_equal(np.isfinite(ref), np.isfinite(got))
    if np.isfinite(ref).any():
        ref_k, got_k = (int(np.nanargmin(v)) for v in (ref, got))
        assert ref_k == got_k and got[got_k] == ref[ref_k]
        others = np.isfinite(got) & (np.arange(len(got)) != got_k)
        assert np.all(got[others] >= got[got_k])


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_screen_matches_lapack_across_scales(m):
    # the stacks of test_extremes_match_lapack_across_scales, split into
    # batches so that the minimum is decided within each
    rng = np.random.default_rng(m)
    scales = 10.0 ** rng.uniform(-150, 150, 400)
    a = rng.standard_normal((400, m, m)) + 1j * rng.standard_normal((400, m, m))
    herm = (a + np.conj(np.swapaxes(a, 1, 2))) * scales[:, None, None]
    v = a[:, :, :1]
    psd = (v @ np.conj(np.swapaxes(v, 1, 2)) + 1e-13 * np.eye(m)) * scales[:, None, None]
    for hs in (herm, psd):
        for part in np.split(hs, 20):
            _assert_screen_decides_like_lapack(part)
        # one scale per stack, as at one function's sample points
        for scale in (1e-150, 1.0, 1e150):
            _assert_screen_decides_like_lapack(hs / scales[:, None, None] * scale)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_screen_on_ties_near_ties_and_non_finite_rows(m):
    rng = np.random.default_rng(20 + m)
    a = rng.standard_normal((60, m, m)) + 1j * rng.standard_normal((60, m, m))
    herm = a + np.conj(np.swapaxes(a, 1, 2))
    ties = np.repeat(herm[:6], 10, axis=0)[rng.permutation(60)]
    near = herm[:1] * (1 + 1e-15 * rng.standard_normal((60, 1, 1)))
    bad = herm.copy()
    bad[rng.choice(60, 15, replace=False), m - 1, 0] = [np.inf, -np.inf, np.nan] * 5
    nearly_all_bad = bad.copy()
    nearly_all_bad[2 * SCREEN_SEEDS + 1:, 0, 0] = np.nan
    few = herm[:2 * SCREEN_SEEDS]
    for hs in (ties, near, bad, nearly_all_bad, few, herm[:1]):
        _assert_screen_decides_like_lapack(hs)
    all_bad = np.full((5, m, m), np.nan, dtype=complex)
    assert np.isnan(screened_min_eigs(all_bad)).all()


def test_screen_at_1e300_raises_no_warning():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((230, 4, 4)) + 1j * rng.standard_normal((230, 4, 4))
    hs = (a + np.conj(np.swapaxes(a, 1, 2))) * 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_screen_decides_like_lapack(hs)


@pytest.mark.parametrize("m", [1, 2])
def test_screen_is_the_closed_form_for_small_m(m):
    rng = np.random.default_rng(40 + m)
    a = rng.standard_normal((50, m, m)) + 1j * rng.standard_normal((50, m, m))
    hs = a + np.conj(np.swapaxes(a, 1, 2))
    assert np.array_equal(screened_min_eigs(hs), hermitian_min_eig_many(hs))
