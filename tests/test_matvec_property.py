"""Property test: the rounded ``matvec`` equals a scalar loop bit for bit.

``sparse.matvec(A, x, p)`` accumulates its rows in an order sorted by entry
count, each slot into a prefix of them, and scatters the result back to the
row order.  The oracle walks the compressed columns instead: for every row it adds
fl(a_ij * x_j) to a sum that starts from +0, column by column in
ascending order, on numpy scalars of p's dtype (float64 for double), whose
operations round once as the emulation does.  Matrices and vectors hold
values of the format: random bit patterns mixed with signed zeros,
subnormals and values whose products or sums overflow; some rows are empty.
Examples in every format add a matrix with an empty row, one whose rows all
have the same length, an x holding -0, inf and NaN, and a matrix with one row
of 30 entries beside rows of 1, whose 30 slots are views into the plan's flat
arrays at 30 offsets (the drawn matrices reach 12).  That matrix also takes x
stored as float32 and as float16, as GMRES passes its basis vectors; the
products are still formed in double.  A NaN is compared by position only,
since numpy's add picks a NaN's sign by its offset in the operand arrays.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import many_slot_system
from spai_ir.precision import DOUBLE, HALF, SINGLE
from spai_ir.sparse import SparseMatrix, matvec

FORMATS = {"half": (HALF, np.uint16), "single": (SINGLE, np.uint32), "double": (DOUBLE, np.uint64)}
SPECIAL = np.array([0.0, -0.0, 2.0**-24, -(2.0**-24), 2.0**-14, 2.0**-149, -(2.0**-149), 2.0**-126,
                    5e-324, -5e-324, 2.2250738585072014e-308, 255.9, 65504.0, -65504.0,
                    3.4028234663852886e38, -3.4028234663852886e38, 1.7976931348623157e308,
                    -1.3407807929942596e154, 1.0, -1.0])


def values(rng, p, bits, shape, mix):
    """Finite values of the format: random bit patterns, some replaced by
    the special values the format holds."""
    dtype = p.dtype or np.float64
    with np.errstate(over="ignore", invalid="ignore"):
        special = SPECIAL[dtype(SPECIAL).astype(np.float64) == SPECIAL]
        x = rng.randint(0, np.iinfo(bits).max, size=shape, dtype=bits).view(dtype).astype(np.float64)
    x[~np.isfinite(x)] = -0.0
    return np.where(rng.rand(*shape) < mix, rng.choice(special, shape), x)


@st.composite
def matvec_cases(draw):
    p, bits = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    mix = draw(st.sampled_from([0.0, 0.3, 0.9]))
    dense = values(rng, p, bits, (n_rows, n_cols), mix)
    dense *= rng.rand(n_rows, n_cols) < draw(st.sampled_from([0.2, 0.5, 1.0]))
    dense[rng.rand(n_rows) < 0.25] = 0.0  # empty rows
    return p, SparseMatrix.from_dense(dense), values(rng, p, bits, (n_cols,), mix)


def scalar_matvec(A: SparseMatrix, x: np.ndarray, p) -> np.ndarray:
    """Row by row, +0 plus fl(a_ij * x_j) for the row's entries in ascending
    column order, on numpy scalars of p's dtype."""
    dt = p.dtype or np.float64
    entries = [[] for _ in range(A.n_rows)]
    for j in range(A.n_cols):  # columns in ascending order
        rows, vals = A.col(j)
        for i, a in zip(rows, vals):
            entries[i].append((a, x[j]))
    out = np.empty(A.n_rows)
    for i, row in enumerate(entries):
        y = dt(0.0)
        for a, xj in row:
            y = dt(y + dt(dt(a) * dt(xj)))
        out[i] = y
    return out


# an empty middle row after a longer one, so the rows are reordered
EMPTY_ROW = SparseMatrix.from_dense(np.array([[2.0, 0.0, -3.0], [0.0, 0.0, 0.0], [1.5, 0.25, 0.5],
                                              [0.0, 4.0, 0.0]]))
# every row has two entries, in different columns
TIED_ROWS = SparseMatrix.from_dense(np.array([[0.0, 1.0, 0.0, -2.0], [3.0, 0.0, 0.5, 0.0], [1.0, -1.0, 0.0, 0.0]]))
SPECIAL_X = np.array([-0.0, np.inf, np.nan, 1.0])
MANY_SLOTS, MANY_X = many_slot_system()


@settings(max_examples=400, deadline=None)
@given(matvec_cases())
@example((HALF, EMPTY_ROW, SPECIAL_X[:3]))
@example((SINGLE, EMPTY_ROW, SPECIAL_X[[0, 3, 1]]))
@example((DOUBLE, EMPTY_ROW, SPECIAL_X[[3, 0, 2]]))
@example((HALF, TIED_ROWS, SPECIAL_X))
@example((SINGLE, TIED_ROWS, SPECIAL_X[::-1]))
@example((DOUBLE, TIED_ROWS, SPECIAL_X[[0, 3, 0, 1]]))
@example((HALF, MANY_SLOTS, MANY_X))
@example((HALF, MANY_SLOTS, MANY_X.astype(np.float16)))
@example((SINGLE, MANY_SLOTS, MANY_X.astype(np.float32)))
@example((SINGLE, MANY_SLOTS, MANY_X.astype(np.float16)))
@example((DOUBLE, MANY_SLOTS, MANY_X.astype(np.float32)))
def test_matvec_equals_the_scalar_loop_bit_for_bit(case):
    p, A, x = case
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = matvec(A, x, p), scalar_matvec(A, x, p)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes(), (got, want)
