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
may carry the other NaN, and so may a product formed at another offset of
the plan's flat arrays.  Matrices have empty rows and columns and rows of
unequal or tied lengths; x and b hold signed zeros, subnormals and values
near overflow, so the order of a row's additions shows in the result.  An
example adds a matrix with one row of 30 entries beside rows of 1, 30 slots
where the drawn matrices reach 12.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import many_slot_system, reference_dd_residual
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
MANY_SLOTS, MANY_X = many_slot_system()


@settings(max_examples=400, deadline=None)
@given(residual_cases())
# row 0's partial sums overflow in ascending column order, not in descending
@example((SparseMatrix.from_dense(np.array([[1.0, 0.5, -1.0], [0.0, 2.0, 0.0]])),
          (np.full(3, -M), np.zeros(3)), np.array([1.0, -0.0])))
# 30 slots, one row wide after the first; b is the double product, so the
# residual is the low words of the sums
@example((MANY_SLOTS, (MANY_X, MANY_X * 2.0**-60), MANY_SLOTS.to_dense() @ MANY_X))
def test_dd_residual_equals_the_padded_slot_loop_bit_for_bit(case):
    A, x, b = case
    got, want = dd_residual(A, x, b), reference_dd_residual(A, x, b)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes(), (got, want)


# Exact oracle.  With u = 2**-53, S = sum_j |a_ij| |x_j| over row i and x a
# normalized pair (|xl| <= u |xh|, as dd_solve's iterates are), the code's
# own operations give these first-order bounds (no underflow):
# - a term, dd_mul(a, 0, xh, xl): _two_prod is exact, and fl(a * xl) and its
#   addition to the product's error word round twice, on values at most
#   2u |a xh|; the closing _renorm is exact.  So 3 u**2 |a| |x|.
# - an addition, dd_add(sh, sl, ph, pl): _two_sum is exact; fl(sl + pl)
#   errs by at most 2 u**2 (|sh| + |ph|) (a sum's low word may reach 2u times
#   its high one), fl(e + f) by 2 u**2 (|sh| + |ph|), and the closing fast
#   two-sum is exact unless its second word outweighs its first, and then
#   errs by at most 3u times that word, 6 u**2 (|sh| + |ph|).  So
#   10 u**2 S.  The first addition of a row, to a +0 sum, is exact.
# - the last step, dd_add(b, 0, -sh, -sl)[0]: _two_sum(b, -sh) is exact, its
#   error word plus -sl errs by at most u**2 (|b| + 3 S), and the high word
#   is the sum rounded once to double.
# So the result is b - A x + d rounded to double, |d| <= u**2 ((10 n - 4) S
# + |b|) <= 10 n 2**-106 (|b| + S), within half an ulp of the result of it.
# Subnormal operands make each of a term's six products (_two_prod's five
# and a * xl) err by up to 2**-1075 on the subnormal grid, which the sums
# carry exactly: 3 * 2**-1074 per term, 3 n 2**-1074 in a row; the test
# allows 4 n 2**-1074.
DD_RESIDUAL_C = 10
SUBNORMALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3.3e-315, 2.2250738585072009e-308])


def exact_residual(A: SparseMatrix, x, b) -> tuple[list, list]:
    """b - A x and sum_j |a_ij| |x_j| per row, exactly, as ``Fraction``s,
    for ``x`` a vector or a (hi, lo) pair."""
    pairs = zip(*x) if isinstance(x, tuple) else ((v, 0.0) for v in x)
    xs = [Fraction(float(hi)) + Fraction(float(lo)) for hi, lo in pairs]
    r, s = [Fraction(float(v)) for v in b], [Fraction(0)] * len(b)
    for j in range(A.n_cols):
        for k in range(A.indptr[j], A.indptr[j + 1]):
            i, a = A.indices[k], Fraction(float(A.data[k]))
            r[i] -= a * xs[j]
            s[i] += abs(a * xs[j])
    return r, s


def normalized(hi: np.ndarray, lo: np.ndarray) -> tuple:
    """The pair (hi, lo) renormalized, so that |lo| is at most half an ulp of hi."""
    s = hi + lo
    return s, lo - (s - hi)


@st.composite
def exact_cases(draw):
    """A square system with n <= 12, entries over +-2**40 mixed with signed
    zeros and subnormals, x a vector or a normalized (hi, lo) pair, and b
    partly the correctly rounded A x, so that the residual cancels down to
    the low words."""
    n = draw(st.integers(1, 12))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    mix = draw(st.sampled_from([0.0, 0.2, 0.6]))

    def entries(shape):
        v = rng.standard_normal(shape) * 2.0 ** rng.randint(-40, 40, size=shape)
        tiny = np.where(rng.random_sample(shape) < 0.5, rng.choice(SUBNORMALS, shape),
                        np.ldexp(rng.randint(1, 2**52, size=shape), -1074) * rng.choice([-1.0, 1.0], shape))
        return np.where(rng.random_sample(shape) < mix, tiny, v)

    A = SparseMatrix.from_dense(np.where(rng.rand(n, n) < draw(st.sampled_from([0.3, 1.0])), entries((n, n)), 0.0))
    xh = entries(n)
    x = normalized(xh, xh * 2.0**-53 * rng.uniform(-1.0, 1.0, n)) if draw(st.booleans()) else xh
    exact, _ = exact_residual(A, x, np.zeros(n))
    b = np.where(rng.rand(n) < 0.6, [float(-v) for v in exact], entries(n))
    return A, x, b


@settings(max_examples=300, deadline=None)
@given(exact_cases())
def test_dd_residual_is_within_its_bound_of_the_exact_residual(case):
    A, x, b = case
    got = dd_residual(A, x, b)
    exact, s = exact_residual(A, x, b)
    n = A.n_rows
    for i in range(n):
        bound = (Fraction(float(np.spacing(abs(got[i])))) / 2
                 + Fraction(DD_RESIDUAL_C * n, 2**106) * (abs(Fraction(float(b[i]))) + s[i])
                 + Fraction(4 * n, 2**1074))
        assert abs(Fraction(float(got[i])) - exact[i]) <= bound, (i, got[i], float(exact[i]))
