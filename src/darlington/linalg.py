"""The batched Hermitian eigen-solve used by the class checkers.

Matrices here are small (m is single digits); the samplers stack one per
sample point.
"""

from __future__ import annotations

import numpy as np

from .poly import _quiet

# screened_min_eigs eigen-solves the SCREEN_SEEDS rows of smallest diagonal
# entry first, and shifts the others' positivity test above the smallest of
# those by SCREEN_MARGIN * m**2 * eps * (m * max|h_ij| + |U|): several times
# the backward error of LDL^H plus that of LAPACK's eigenvalues (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10)
SCREEN_SEEDS = 4
SCREEN_MARGIN = 16.0


def hermitian_extreme_eigs(hs):
    """Smallest and largest eigenvalues: (n, m, m) stack -> two (n,) floats.

    Like LAPACK, reads only the lower triangle and the real part of the
    diagonal; callers pass matrices that are Hermitian by construction.
    For m = 1 both are the diagonal.  For m = 2 a closed form saves
    LAPACK's per-matrix overhead: the eigenvalue of larger magnitude is
    a/2 + d/2 +- hypot(a/2 - d/2, |h21|), which does not overflow where
    a + d would, and the other is the determinant over it.  Larger m goes
    to ``np.linalg.eigvalsh``.  A matrix with a non-finite entry gets NaN
    for both, so the samplers drop it instead of trusting a value LAPACK
    makes up (or raising on it).
    """
    hs = np.asarray(hs, dtype=np.complex128)
    bad = ~np.isfinite(hs).all(axis=(1, 2))
    if bad.any():
        hs = np.where(bad[:, None, None], 0.0, hs)
    m = hs.shape[-1]
    if m == 1:
        lo = hs[:, 0, 0].real.copy()
        hi = lo.copy()
    elif m == 2:
        a, d, b = hs[:, 0, 0].real, hs[:, 1, 1].real, np.abs(hs[:, 1, 0])
        mid = a / 2 + d / 2
        big = mid + np.copysign(np.hypot(a / 2 - d / 2, b), mid)
        # det / big, ordered as in LAPACK's dlae2 so that neither quotient
        # exceeds 1: the smaller eigenvalue keeps its relative accuracy,
        # which mid - radius would lose.  big is 0 only for the zero matrix
        a_first = np.abs(a) > np.abs(d)
        div = np.where(big == 0, 1.0, big)
        small = (np.where(a_first, a, d) / div) * np.where(a_first, d, a) - (b / div) * b
        lo, hi = np.minimum(big, small), np.maximum(big, small)
    else:
        eigs = np.linalg.eigvalsh(hs)
        lo, hi = eigs[:, 0], eigs[:, -1]
    lo[bad] = hi[bad] = np.nan
    return lo, hi


def hermitian_min_eig_many(hs):
    """Batched smallest eigenvalues: (n, m, m) stack -> (n,) floats, by
    ``hermitian_extreme_eigs``."""
    return hermitian_extreme_eigs(hs)[0]


def _passes_ldlh(a):
    """Whether LDL^H of each matrix in ``a``, an (m, m, n) stack with the
    matrices along the last axis, runs with every pivot positive and finite,
    i.e. the computed matrix is positive definite.  Reads the lower triangle
    and the real diagonal; overwrites ``a``.  An overflow makes a pivot inf
    or NaN, so that matrix fails."""
    pivots = np.empty(a.shape[1:], dtype=np.float64)
    for k in range(len(a)):
        pivots[k] = a[k, k].real
        col = a[k + 1:, k]
        a[k + 1:, k + 1:] -= (col / pivots[k])[:, None] * col.conj()
    return ((pivots > 0) & (pivots < np.inf)).all(axis=0)


@_quiet
def screened_min_eigs(hs):
    """``hermitian_min_eig_many`` wherever it can decide the minimum: the
    (n,) smallest eigenvalues of an (n, m, m) Hermitian stack, with the same
    finite mask, minimum and first position of the minimum, bit for bit.

    For m <= 2 every row is ``hermitian_min_eig_many``'s.  For larger m, the
    SCREEN_SEEDS finite rows of smallest diagonal entry are eigen-solved
    first (the smallest eigenvalue is at most the smallest diagonal entry);
    call the smallest result U.  Every other finite row i gets the shift
    s_i = U + SCREEN_MARGIN * m**2 * eps * (m * max|h_ij| + |U|) and the
    positivity test of H_i - s_i I by LDL^H.  A row that passes has its
    smallest eigenvalue, as LAPACK computes it, above U, so it cannot be or
    tie the minimum: it gets s_i, finite and above U, not its eigenvalue.
    A row that fails (an overflow fails it too) is eigen-solved, and so is
    every finite row when there are at most 2 * SCREEN_SEEDS of them.  Rows
    with a non-finite entry are NaN.  Per-matrix eigen-solves do not depend
    on the batch, so the solved rows are those of the full stack.
    """
    hs = np.asarray(hs, dtype=np.complex128)
    m = hs.shape[-1]
    if m <= 2:
        return hermitian_min_eig_many(hs)
    # matrices along the last axis: the per-matrix reductions and the
    # elimination then run along n
    a = hs.transpose(1, 2, 0).copy()
    finite = np.isfinite(a).all(axis=(0, 1))
    out = np.full(len(hs), np.nan)
    if np.count_nonzero(finite) <= 2 * SCREEN_SEEDS:
        out[finite] = hermitian_min_eig_many(hs[finite])
        return out
    idx = np.arange(m)
    diag = np.where(finite, a[idx, idx].real.min(axis=0), np.inf)
    seeds = np.argpartition(diag, SCREEN_SEEDS)[:SCREEN_SEEDS]
    seed_eigs = hermitian_min_eig_many(hs[seeds])
    lowest = seed_eigs.min()
    margin = SCREEN_MARGIN * m * m * np.finfo(float).eps
    # m * margin * max|h_ij| first: m * max|h_ij| alone can overflow
    shift = lowest + (m * margin * np.abs(a).max(axis=(0, 1)) + margin * abs(lowest))
    # a shift too close to U to be trusted (its margin underflowed) fails
    clear = shift - lowest >= np.finfo(float).tiny
    a[idx, idx] -= shift
    solve = finite & ~(clear & _passes_ldlh(a))
    solve[seeds] = False
    out[finite] = shift[finite]
    out[seeds] = seed_eigs
    if solve.any():
        out[solve] = hermitian_min_eig_many(hs[solve])
    return out
