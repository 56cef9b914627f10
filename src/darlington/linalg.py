"""The batched Hermitian eigen-solve used by the class checkers.

Matrices here are small (m is single digits); the samplers stack one per
sample point.
"""

from __future__ import annotations

import numpy as np


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
