import numpy as np
import pytest

from darlington.linalg import hermitian_min_eig_many


def test_batched_matches_single():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    hs = a + np.conj(np.swapaxes(a, -1, -2))
    batched = hermitian_min_eig_many(hs)
    for k in range(6):
        assert batched[k] == pytest.approx(np.linalg.eigvalsh(hs[k])[0])
