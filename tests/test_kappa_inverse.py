"""Property test of the inverse behind the kappa diagnostics.

``kappa_inf`` inverts a dense copy of A in place by LAPACK's ``dgetrf`` and
``dgetri`` and takes both infinity norms by ``dlange`` (``analysis._inv``,
``analysis._kappa``).  On generated matrices, handed over as a dense array
in C or Fortran order or as a ``SparseMatrix``, it must agree with
``np.linalg.cond(A, np.inf)``, which solves against an identity, within
1e-13 relative, the tolerance the README gives this diagnostic, and leave
a dense input unchanged.  An exactly singular input, one with a zero row
or column, which stays exactly zero through the elimination, raises
``SingularMatrixError("singular in the dense inverse in double")``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spai_ir.analysis import kappa_inf
from spai_ir.precision import SingularMatrixError
from spai_ir.sparse import SparseMatrix

RTOL = 1e-13


@st.composite
def matrices(draw):
    """A random-sparse or dense matrix with n in 1..40, its diagonal
    dominant by a drawn margin, its rows spread over up to three decades."""
    n = draw(st.integers(1, 40))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) * (rng.rand(n, n) < draw(st.sampled_from([0.1, 0.5, 1.0])))
    A[np.diag_indices(n)] = np.abs(A).sum(axis=1) * draw(st.sampled_from([0.6, 1.0, 2.0])) + 1.0
    A *= 10.0 ** rng.uniform(-draw(st.integers(0, 3)), 0.0, (n, 1))
    return A


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(["C", "F", "sparse"]))
def test_kappa_inf_agrees_with_numpy_cond(A, form):
    want = np.linalg.cond(A, np.inf)
    given_A = SparseMatrix.from_dense(A) if form == "sparse" else np.array(A, order=form)
    got = kappa_inf(given_A)
    assert abs(got - want) <= RTOL * want, (got, want)
    if form != "sparse":
        assert np.array_equal(given_A, A)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.sampled_from(["row", "column"]), st.data())
def test_kappa_inf_of_an_exactly_singular_matrix_raises(A, zero, data):
    k = data.draw(st.integers(0, A.shape[0] - 1))
    if zero == "row":
        A[k, :] = 0.0
    else:
        A[:, k] = 0.0
    with pytest.raises(SingularMatrixError, match="^singular in the dense inverse in double$"):
        kappa_inf(A)
