"""Property test of the band-limited substitution of ``DenseLu``.

``DenseLu.substitute`` takes the right-hand side in the row order of the
factored matrix, applies each row interchange of the factorization just
before that step's column update, and runs its forward and back loops only
over the rows that the reach tables of the band store give, in float32 for
single precision; the zeros outside each step's reach are touched by no
step.  So it is compared here with ``reference_substitute``, which runs
over whole columns in float64 with ``fl``, applied to the packed float64
factors of ``reference_dense_lu`` and the right-hand side in their pivot
order, under the band contract (``agree``): every entry that the
reference leaves finite must match it, up to the sign of a zero
(conftest's ``signless_zeros``), and the result must hold an inf or NaN
exactly when the reference's does; where the reference meets an inf or
NaN, its whole columns spread NaN (0 * inf) to rows that no step of the
band touches.  The factors of ``dense_lu`` are float32 for half and
single, so the native float32 substitution and the mixed
float32-and-float64 one are both checked against the float64 loop.  The
matrix is handed to ``dense_lu`` as a ``SparseMatrix`` that stores every
entry but +0 (conftest's ``stored``).  The right-hand sides hold -0,
infinities, NaN, subnormals and values that overflow.

The bits themselves, zero signs included, are pinned by
``reference_band_substitute``: the same band loops with x in float64 and
every product and difference rounded by ``fl``, for float32 and float64
factors applied in half, single and double.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import reference_band_substitute, reference_dense_lu, reference_substitute, same_bits, signless_zeros, stored
from spai_ir.precision import DOUBLE, HALF, SINGLE, dense_lu

FORMATS = (HALF, SINGLE, DOUBLE)
# per format: a subnormal, and a value whose products overflow
EXTREMES = {"half": (2.0**-20, 6.0e4), "single": (1.0e-40, 3.0e38), "double": (1.0e-310, 1.0e308)}


def band_solve(A, uf, p, b):
    try:
        f = dense_lu(stored(A), uf)
    except ArithmeticError:
        return None
    return f.substitute(b, p)


def reference_solve(A, uf, p, b):
    try:
        lu, perm = reference_dense_lu(A, uf)
    except ArithmeticError:
        return None
    return reference_substitute(lu, b[perm], p)


def agree(got, want) -> bool:
    """The band contract's match of a substitution with the whole-column
    reference: equal, up to the sign of a zero, wherever the reference is
    finite, and not finite somewhere exactly when the reference is not."""
    if got is None:
        return False
    finite = np.isfinite(want)
    return np.isfinite(got).all() == finite.all() and signless_zeros(got[finite]) == signless_zeros(want[finite])


@st.composite
def substitute_inputs(draw):
    """A banded, random-sparse or dense matrix with n in 1..30 that factors
    with pivoting in ``uf``, a substitution precision ``p`` and a
    right-hand side spread over decades with special values planted."""
    n = draw(st.integers(1, 30))
    uf, p = draw(st.sampled_from(FORMATS)), draw(st.sampled_from(FORMATS))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    kind = draw(st.sampled_from(["banded", "sparse", "dense"]))
    if kind == "banded":
        lower, upper = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        i, j = np.indices((n, n))
        A[(i - j > lower) | (j - i > upper)] = 0.0
    elif kind == "sparse":
        A[rng.rand(n, n) >= draw(st.sampled_from([0.05, 0.2, 0.5]))] = 0.0
    if draw(st.booleans()):
        A[np.diag_indices(n)] += 4.0 * np.sign(rng.standard_normal(n))
    A *= 10.0 ** rng.uniform(-draw(st.integers(0, 3)), 0.0, (n, 1))
    b = rng.standard_normal(n) * 10.0 ** rng.uniform(-draw(st.integers(0, 6)), 0.0, n)
    b *= draw(st.sampled_from([1.0, 1.0e-30, 1.0e30]))
    b[rng.rand(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    tiny, huge = EXTREMES[p.name]
    for value, most in ((-0.0, 3), (np.inf, 1), (-np.inf, 1), (np.nan, 1), (tiny, 3), (-huge, 2), (huge, 2)):
        b[rng.randint(n, size=draw(st.integers(0, most)))] = value
    return A, uf, p, b


# tridiagonal, every step swapping rows k and k + 1, so each multiplier is carried
# below the band and each negative pivot leaves -0 below it in L
TRIDIAGONAL = np.eye(6) + np.diag(np.full(5, -4.0), -1) + np.diag(np.ones(5), 1)


@settings(max_examples=400, deadline=None)
@given(substitute_inputs())
# a later row swap carries the multiplier of column 0 from row 1 to row 2,
# past the reach of column 0 when it was eliminated
@example((np.array([[4.0, 1.0, 0.0], [2.0, 0.5, 1.0], [0.0, 3.0, 1.0]]), DOUBLE, DOUBLE, np.ones(3)))
# 0 divided by the negative pivot is -0 in L, and -0 - (-0 * 1) = +0 in x
@example((np.array([[-2.0, 1.0], [0.0, 1.0]]), DOUBLE, DOUBLE, np.array([1.0, -0.0])))
# half substitution of float32 single factors: the product 1.17634606... * 1.6142578125
# rounded to single first would round to half 2**-10 below its correctly rounded value
@example((np.array([[1.0, 1.1763460636138916], [0.0, 1.0]]), SINGLE, HALF, np.array([0.0, 1.6142578125])))
# half substitution with products below 2**-14, where the one cast to float16 is their rounding:
# with half factors, and with single ones, whose first product 0.61787074804306 * 1.5676021575927734e-05
# rounded to single first would round to half 2**-24 below its correctly rounded value
@example((np.array([[1.0, 0.7001953125], [0.2998046875, 1.0]]), HALF, HALF, np.array([3.0994415283203125e-05, 0.0])))
@example((np.array([[1.0, 0.6462264060974121], [0.6178707480430603, 1.0]]), SINGLE, HALF,
          np.array([1.5676021575927734e-05, 0.0])))
# in a band store: the multipliers carried below the band; and a -0 in b, which the whole
# columns turn into +0 in rows 6 and 7 (-0 - (-0 * x_0)) and the band leaves -0
@example((TRIDIAGONAL, SINGLE, SINGLE, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])))
@example((np.diag(np.ones(8)) + np.pad(TRIDIAGONAL - np.eye(6), (0, 2)), DOUBLE, HALF,
          np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -0.0, -0.0])))
# stored entries that round to -0 in half, read as +0: the band keeps -0 in x where the whole columns make +0
@example((np.eye(8) - 1e-10 * np.eye(8, k=-1), HALF, SINGLE, np.array([1.0, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])))
# an inf in b: the whole columns spread NaN (0 * inf) to rows 1 to 3, which the band leaves finite
@example((np.eye(4) + np.diag(np.ones(3), 1), DOUBLE, DOUBLE, np.array([np.inf, 1.0, 1.0, 1.0])))
def test_substitute_equals_whole_column_reference(case):
    A, uf, p, b = case
    want = reference_solve(A, uf, p, b)
    assume(want is not None)
    assert agree(band_solve(A, uf, p, b), want)


@settings(max_examples=400, deadline=None)
@given(substitute_inputs())
# double factors applied in half, products below 2**-14: 0.3256578827686793 * 9.059906005859375e-06
# rounded to single first would round to half 2**-24 above its correctly rounded value
@example((np.array([[1.0, 0.3002204062508747], [0.3256578827686793, 1.0]]), DOUBLE, HALF,
          np.array([9.059906005859375e-06, 0.0])))
def test_substitute_has_the_bits_of_the_rounded_float64_band_loop(case):
    A, uf, p, b = case
    try:
        f = dense_lu(stored(A), uf)
    except ArithmeticError:
        assume(False)
    assert same_bits(f.substitute(b, p), reference_band_substitute(f, b, p))
