"""The batched Hermitian eigen-solve used by the class checkers.

Matrices here are small (m is single digits); the samplers stack one per
sample point.
"""

from __future__ import annotations

import numpy as np


def hermitian_min_eig_many(hs):
    """Batched smallest eigenvalues: (n, m, m) stack -> (n,) floats.

    The stack is symmetrized without a residual check; callers pass
    matrices that are Hermitian by construction.
    """
    hs = np.asarray(hs, dtype=np.complex128)
    sym = (hs + np.conj(np.swapaxes(hs, -1, -2))) / 2
    return np.linalg.eigvalsh(sym)[..., 0].astype(float)
