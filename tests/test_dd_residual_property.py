"""Property test: ``dd_residual`` equals its padded-slot loop bit for bit.

``precision.dd_residual(A, (xh, xl), b)`` accumulates every row's
double-double products in ascending column order through the prefix slots
of ``SparseMatrix.row_plan``, rows permuted by descending entry count, and
scatters the result back to the row order at the end.
``conftest.reference_dd_residual`` is the loop it replaced: slots in the
natural row order, each gathered from and scattered back to its rows.  The
two are compared as raw bytes, except that a NaN only has to be a NaN:
numpy's add loops choose which of two NaN operands' sign survives by the
element's position in the array (NaN + -NaN gave +NaN at element 0 and
-NaN at element 9 of a 10-element add), so a row moved by the permutation
may carry the other NaN.  Matrices have empty rows and columns and rows of
unequal or tied lengths; x and b hold signed zeros, subnormals and values
near overflow, so the order of a row's additions shows in the result.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_dd_residual
from spai_ir.precision import dd_residual
from spai_ir.sparse import SparseMatrix

# signed zeros, subnormals, values near overflow, and ordinary ones
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308,
                    -1.7976931348623157e308, 8.98846567431158e307, -1e308, 1.0, -1.0, 3.0, 0.1])


def values(rng, shape, mix):
    """Random doubles over 36 decades, some replaced by the special values."""
    x = rng.standard_normal(shape) * 2.0 ** rng.randint(-60, 60, size=shape)
    return np.where(rng.rand(*shape) < mix, rng.choice(SPECIAL, shape), x)


@st.composite
def residual_cases(draw):
    """A matrix, an x pair and a b.  Its pattern is random (rows of unequal
    length, some tied), or gives every row the same number of entries; rows
    and columns may be empty.  Some entries of b are the double product A xh,
    so that the residual cancels down to the low words of the sums."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    mix = draw(st.sampled_from([0.0, 0.3, 0.9]))
    if draw(st.booleans()):
        mask = rng.rand(n_rows, n_cols) < draw(st.sampled_from([0.2, 0.5, 1.0]))
    else:  # tied row lengths: every row has k entries
        k = draw(st.integers(1, n_cols))
        mask = np.argsort(rng.rand(n_rows, n_cols), axis=1) < k
    mask[rng.rand(n_rows) < 0.2] = False  # empty rows
    mask[:, rng.rand(n_cols) < 0.2] = False  # empty columns
    dense = np.where(mask, values(rng, (n_rows, n_cols), mix), 0.0)
    xh = values(rng, (n_cols,), mix)
    xl = np.where(rng.rand(n_cols) < 0.5, xh * 2.0**-60, values(rng, (n_cols,), mix))
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.where(rng.rand(n_rows) < 0.5, dense @ xh, values(rng, (n_rows,), mix))
    return SparseMatrix.from_dense(dense), (xh, xl), b


M = 1.7976931348623157e308


@settings(max_examples=400, deadline=None)
@given(residual_cases())
# row 0's partial sums overflow in ascending column order, not in descending
@example((SparseMatrix.from_dense(np.array([[1.0, 0.5, -1.0], [0.0, 2.0, 0.0]])),
          (np.full(3, -M), np.zeros(3)), np.array([1.0, -0.0])))
def test_dd_residual_equals_the_padded_slot_loop_bit_for_bit(case):
    A, x, b = case
    got, want = dd_residual(A, x, b), reference_dd_residual(A, x, b)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes(), (got, want)
