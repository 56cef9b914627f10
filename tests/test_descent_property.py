"""Property test: the zero-hunt descent against its loop reference.

Random scalar polynomials in 1-3 variables of total degree at most 4, some
with a planted zero in the open upper poly-half-plane, descend together
from random upper starts.  The batched descent must give the reference's
rows, values and iteration counts bit for bit, and a direct call must
raise no RuntimeWarning.
"""

import itertools
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from darlington import MatrixPoly, checks  # noqa: E402
from test_checks import descent_loop_reference  # noqa: E402

FLOOR = 0.025   # half the smallest imaginary part a start can have


def upper_point(d):
    coord = st.builds(complex, st.floats(-4.0, 4.0), st.floats(2 * FLOOR, 4.0))
    return st.lists(coord, min_size=d, max_size=d)


@st.composite
def descents(draw):
    """(basis, coeffs, owner, Z, floor, level) as ``_hunt`` builds them."""
    d = draw(st.integers(1, 3))
    exponents = [e for e in itertools.product(range(5), repeat=d) if sum(e) <= 4]
    coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(bool)
    polys, starts = [], []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(exponents), coeff, min_size=1, max_size=6))
        p = MatrixPoly.from_scalar_terms(d, terms)
        if p.total_degree() > 0 and draw(st.booleans()):    # plant a zero at an upper point
            p = p - MatrixPoly.constant(d, p.evaluate(draw(upper_point(d)))[0, 0])
        polys.append(p)
        starts.append(draw(st.lists(upper_point(d), min_size=1, max_size=6)))
    basis = MatrixPoly(d, 1, {e: 1.0 for p in polys for e in p.terms})
    coeffs = np.array([[p.terms[e][0, 0] if e in p.terms else 0.0
                        for e, _ in basis.ordered_terms()] for p in polys], dtype=np.complex128)
    owner = np.repeat(np.arange(len(polys)), [len(s) for s in starts])
    Z = np.array([z for s in starts for z in s], dtype=np.complex128)
    scale = np.array([p.max_coeff_magnitude() for p in polys])
    return basis, coeffs, owner, Z, np.full(len(polys), FLOOR), checks.RETIRE_RTOL * scale[owner]


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(descents())
def test_descent_matches_loop_reference_on_random_polynomials(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = checks._descend_to_zero(*args)
    want = descent_loop_reference(*args, retire=True)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
