"""Property test of the band contract of ``dense_lu``.

Each elimination step of ``dense_lu`` updates only the rows up to its last
nonzero multiplier and the columns up to the last nonzero entry of its
pivot row, in ``dgbtrf``'s band store, which keeps each multiplier in the
row where it was computed; an entry outside the band is a zero that no
step touches, a rounded -0 in the input is the +0 it stands for, and an
inf or NaN anywhere in the store is an overflow, raised ahead of a zero
pivot.  So ``dense_lu`` is compared here with ``reference_dense_lu``, which
updates the whole trailing block of a dense array at every step, swaps
whole rows and follows the same overflow rule.  Both must return the same
packed factors (conftest's ``packed`` rebuilds them from the band store)
up to the sign of a zero (conftest's ``signless_zeros``) and the same
pivot order, or raise the same exception with the same message.  The drawn
matrix is handed to ``dense_lu`` as a ``SparseMatrix`` that stores every
entry but +0 (conftest's ``stored``).  The factors are compared as the raw
bytes of their float64 widening, which is exact and one-to-one on finite
values, since ``dense_lu`` keeps half and single factors in float32 and
the reference keeps every format in float64; the storage dtype is checked
on its own.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf

from conftest import packed, reference_dense_lu, signless_zeros, stored
from spai_ir.precision import DOUBLE, HALF, SINGLE, dense_lu

# as given, overflow of half / single / double, underflow of half / single / double
SCALES = (1.0, 3.0e4, 1.0e5, 1.0e37, 1.0e300, 1.0e-7, 1.0e-44, 1.0e-310)


def outcome(factor, A, uf):
    try:
        lu, perm = factor(A, uf)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return signless_zeros(lu), perm.tobytes()


def band_lu(A, uf):
    return packed(dense_lu(stored(A), uf))


@st.composite
def lu_inputs(draw):
    """A banded, random-sparse or dense matrix with n in 1..40, its rows
    spread over several decades and the whole scaled, often out of the
    format's range; -0 and inf entries, zero rows and zero columns are
    planted in it."""
    n = draw(st.integers(1, 40))
    uf = draw(st.sampled_from([HALF, SINGLE, DOUBLE]))
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
    A *= 10.0 ** rng.uniform(-draw(st.integers(0, 6)), 0.0, (n, 1))
    A *= draw(st.sampled_from(SCALES))
    for value, most in ((-0.0, 8), (np.inf, 2)):
        planted = draw(st.integers(0, most))
        A[rng.randint(n, size=planted), rng.randint(n, size=planted)] = value
    A[rng.randint(n, size=draw(st.integers(0, 2))), :] = 0.0
    A[:, rng.randint(n, size=draw(st.integers(0, 2)))] = 0.0
    return A, uf


# tridiagonal, every step swapping rows k and k + 1: each multiplier is carried
# below the band (to row 5 at the end), and each pivot is negative, so L is -0 below it
TRIDIAGONAL = np.eye(6) + np.diag(np.full(5, -4.0), -1) + np.diag(np.ones(5), 1)
TRIDIAGONAL_INF = np.eye(8) + np.diag(np.full(7, -4.0), -1) + np.diag(np.ones(7), 1)
TRIDIAGONAL_INF[4, 5] = 7e4
# entries near 1e-3 over a strong diagonal: in half, 71 % of the rank-1 products
# fall below 2**-14 and are rounded onto the subnormal grid before the cast
SMALL_ENTRIES = 1e-3 * (4.0 * np.eye(12) + 0.5 * np.random.RandomState(0).standard_normal((12, 12)))


@settings(max_examples=400, deadline=None)
@given(lu_inputs())
# a -0 that a full step turns into +0 (-0 - -0): the band reads it as +0 and skips the step
@example((np.array([[2.0, -1.0, 0.0], [1.0, 1.0, 1.0], [0.0, -0.0, 1.0]]), DOUBLE))
# an inf in the pivot row over zero multipliers (0 * inf = NaN): overflow, not a zero pivot
@example((np.array([[1.0, 1e5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), HALF))
# a NaN multiplier (inf / inf) over a zero pivot row: overflow, not a zero pivot
@example((np.array([[1e5, 0.0, 0.0], [1e5, 0.0, 0.0], [0.0, 0.0, 0.0]]), HALF))
# a negative pivot over structural zeros in its column: 0 / -2 is -0 in L
@example((np.array([[-2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 3.0]]), DOUBLE))
@example((TRIDIAGONAL, SINGLE))
# the band store meets an inf (7e4 in half) in the pivot row of step 3, and keeps its band
@example((TRIDIAGONAL_INF, HALF))
# stored entries that round to -0 in half, read as +0: L holds +0 where the full block holds -0
@example((np.eye(8) - 1e-10 * np.eye(8, k=-1), HALF))
# a zero pivot after an inf (1e5 in half) in the factors: overflow, not a singular matrix
@example((np.array([[1e5, 0.0], [0.0, 0.0]]), HALF))
@example((SMALL_ENTRIES, HALF))
# step 1 inside the band: its last multiplier, of row 3, and its pivot row's last entry,
# in column 3, are exact zeros, so both reaches are found by a scan
@example((np.array([[4.0, 0.0, 0.0, 0.0], [1.0, 4.0, 1.0, 0.0], [0.0, 1.0, 4.0, 0.0], [1.0, 0.0, 0.0, 4.0]]), DOUBLE))
def test_dense_lu_equals_full_block_reference(case):
    A, uf = case
    assert outcome(band_lu, A, uf) == outcome(reference_dense_lu, A, uf)


def test_dense_lu_keeps_half_and_single_factors_in_float32():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    for uf, dtype in ((HALF, np.float32), (SINGLE, np.float32), (DOUBLE, np.float64)):
        assert dense_lu(stored(A), uf).store.dtype == dtype, uf


def lapack_band(A: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """The band matrix AB that LAPACK's ``dgbtrf`` takes for ``A``, of lower
    and upper bandwidth ``kl`` and ``ku``: (i, j) at row kl + ku + i - j of
    column j, with kl rows of room for fill on top."""
    i, j = np.indices(A.shape)
    held = (i - j <= kl) & (j - i <= ku)
    ab = np.zeros((2 * kl + ku + 1, A.shape[1]))
    ab[kl + ku + i[held] - j[held], j[held]] = A[held]
    return ab


def unbanded(ab: np.ndarray, n: int, kl: int, ku: int) -> np.ndarray:
    """The n x n array whose (i, j) is entry (i, j) of the band matrix ``ab``
    that holds ``kl`` rows below and ``ku`` above the diagonal (0 outside)."""
    i, j = np.indices((n, n))
    held = (i - j <= kl) & (j - i <= ku)
    out = np.zeros((n, n))
    out[held] = ab[ku + i[held] - j[held], j[held]]
    return out


@st.composite
def band_systems(draw):
    """``(n, kl, ku, seed)`` for :func:`band_system`: n in 1..40, and lower
    and upper bandwidths kl and ku, each any of 0..n - 1."""
    n = draw(st.integers(1, 40))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, 2**32 - 1))


def band_system(n, kl, ku, seed):
    """An n x n band matrix of lower and upper bandwidth kl and ku and an
    n x 3 right-hand side, with standard normal entries from a seeded
    generator, so that no two pivot candidates tie.  Each diagonal entry is
    pushed away from 0 by a shift drawn from [1, 3], which leaves the
    entries below it free to win the pivot search: 4,000 such matrices
    swapped rows 8 times each on average."""
    rng = np.random.RandomState(seed)
    i, j = np.indices((n, n))
    A = np.where((i - j <= kl) & (j - i <= ku), rng.standard_normal((n, n)), 0.0)
    A[np.diag_indices(n)] += rng.uniform(1.0, 3.0) * np.sign(A.diagonal())
    return A, rng.standard_normal((n, 3))


@settings(max_examples=200, deadline=None)
@given(band_systems())
@example((40, 39, 39, 0))  # a band as wide as the matrix, a (2n - 1) x n store: 28 row swaps
@example((12, 11, 11, 1))
@example((12, 5, 9, 4))  # a wide band, kl + ku + 1 >= n, with kl < n - 1: 3 row swaps
@example((12, 9, 2, 4))  # kl > ku: the interchanges widen U to kl + ku (6 row swaps)
@example((1, 0, 0, 4))
def test_dense_lu_factors_as_lapack_dgbtrf(case):
    """LAPACK as an independent oracle of the layout: ``dense_lu`` in double
    and ``dgbtrf`` choose the same pivots and band widths (the drawn kl, and
    kl + ku up to n - 1, but at least 1), their L and U agree within 1e-12
    of max |A| (not bit for bit: ``dgbtf2`` scales the column by the
    reciprocal of the pivot), and ``DenseLu.solve`` agrees with
    ``np.linalg.solve`` within 1e-12 of max |X|.  Only matrices with
    cond_2(A) <= 1e3 are kept, so that two backward-stable solves must
    agree that closely."""
    n, kl, ku, seed = case
    A, B = band_system(n, kl, ku, seed)
    assume(np.linalg.cond(A) <= 1e3)
    f = dense_lu(stored(A), DOUBLE)
    assert (f.kl, f.ku) == (kl, max(min(kl + ku, n - 1), 1))
    ab, piv, info = dgbtrf(lapack_band(A, kl, ku), kl, ku)
    assert info == 0
    assert f.piv.tolist() == piv.tolist()
    ours = unbanded(f.store.reshape(n, -1).T, n, f.kl, f.ku)
    theirs = unbanded(ab, n, kl, kl + ku)
    assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(A).max()
    X, want = f.solve(B.copy(order="F")), np.linalg.solve(A, B)
    assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()
