import io
import re

import numpy as np
import pytest

from spai_ir.precision import DOUBLE, HALF, SINGLE, dd_residual
from spai_ir.sparse import (
    MatrixMarketParseError,
    SparseMatrix,
    column_scale,
    extract_submatrix,
    load_matrix_market,
    matvec,
    shadow,
)

HEADER = "%%MatrixMarket matrix coordinate real general\n"


def test_load_single_entry():
    A = load_matrix_market((HEADER + "1 1 1\n1 1 5\n").encode())
    assert A.shape == (1, 1)
    assert A.to_dense()[0, 0] == 5.0


def test_load_symmetric_expansion():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 2 2\n2 1 3\n"
    A = load_matrix_market(text.encode())
    D = A.to_dense()
    assert D[1, 0] == 3.0 and D[0, 1] == 3.0
    assert A.nnz == 4


def test_load_duplicates_summed():
    A = load_matrix_market((HEADER + "2 2 3\n1 1 2\n1 1 3\n2 2 1\n").encode())
    assert A.to_dense()[0, 0] == 5.0
    assert A.nnz == 2


def test_load_integer_field_and_comments():
    text = "%%MatrixMarket matrix coordinate integer general\n% a comment\n2 2 2\n1 1 7\n% inner comment\n2 2 8\n"
    A = load_matrix_market(text.encode())
    assert A.to_dense()[1, 1] == 8.0


def test_load_errors_name_lines():
    with pytest.raises(MatrixMarketParseError, match="line 1"):
        load_matrix_market(b"%%MatrixMarket matrix array real general\n")
    with pytest.raises(MatrixMarketParseError, match="pattern"):
        load_matrix_market(b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
    with pytest.raises(MatrixMarketParseError, match="line 3"):
        load_matrix_market((HEADER + "2 2 1\n5 1 1.0\n").encode())
    with pytest.raises(MatrixMarketParseError, match="line 3"):
        load_matrix_market((HEADER + "2 2 1\n1 1\n").encode())
    with pytest.raises(MatrixMarketParseError, match="expected 1"):
        load_matrix_market((HEADER + "2 2 1\n").encode())


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
     "line 1: unsupported field 'complex'"),
    ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
     "line 1: unsupported symmetry 'hermitian'"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1.0\n",
     "line 1: unsupported symmetry 'skew-symmetric'"),
    ("%%MatrixMarket matrix coordinate real general\n% only a comment\n\n", "line 3: missing size line"),
])
def test_load_rejects_an_unsupported_header_or_a_missing_size_line(text, message):
    with pytest.raises(MatrixMarketParseError, match=f"^{message}$"):
        load_matrix_market(text.encode())


def test_load_takes_a_path_or_bytes_only():
    with pytest.raises(TypeError, match="^source must be a path or bytes$"):
        load_matrix_market(io.BytesIO((HEADER + "1 1 1\n1 1 5\n").encode()))


@pytest.mark.parametrize("text, message", [
    # sized by the declaration, these allocated 16 GiB or more before any entry was read
    ("1 1 2147483648\n1 1 1.0\n", "line 3: expected 2147483648 entries, found 1"),
    ("1 2147483648 1\n1 1 1.0\n", "line 2: 1 entries leave a row or column of 1x2147483648 empty"),
    ("2 2 1\n1 1 1.0\n", "line 2: 1 entries leave a row or column of 2x2 empty"),
])
def test_load_rejects_declarations_the_entries_cannot_fill(text, message):
    with pytest.raises(MatrixMarketParseError, match=f"^{message}$"):
        load_matrix_market((HEADER + text).encode())


def test_load_rejects_a_non_square_symmetric_file():
    # (1, 3) used to be mirrored to row 3 of a 2-row matrix
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 3 3\n1 1 1.0\n2 2 1.0\n1 3 1.0\n"
    with pytest.raises(MatrixMarketParseError, match="line 2: symmetric matrix must be square"):
        load_matrix_market(text.encode())


def test_load_rejects_a_symmetric_entry_listed_in_both_triangles():
    # expansion used to sum the pair: [[1, 6], [6, 1]]
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 4\n1 1 1\n2 2 1\n2 1 3\n1 2 3\n"
    with pytest.raises(MatrixMarketParseError, match=r"^line 6: entry \(1, 2\) of a symmetric matrix mirrors"):
        load_matrix_market(text.encode())
    # either triangle alone loads
    upper = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 2 1\n1 2 3\n"
    assert np.array_equal(load_matrix_market(upper.encode()).to_dense(), [[1.0, 3.0], [3.0, 1.0]])


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_load_rejects_non_finite_values(value):
    with pytest.raises(MatrixMarketParseError, match="line 4: non-finite"):
        load_matrix_market((HEADER + f"2 2 2\n1 1 1.0\n2 2 {value}\n").encode())


def test_explicit_zeros_dropped():
    A = load_matrix_market((HEADER + "2 2 2\n1 1 0.0\n2 1 1.0\n").encode())
    assert A.nnz == 1


def test_transpose_involution(rng):
    A = SparseMatrix.from_dense(rng.randn(7, 5) * (rng.rand(7, 5) < 0.4))
    B = A.transpose().transpose()
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_to_dense_writes_permuted_rows_and_columns_in_either_layout(rng):
    dense = rng.randn(7, 5) * (rng.rand(7, 5) < 0.5)
    A = SparseMatrix.from_dense(dense)
    rows = rng.permutation(7)
    assert np.array_equal(A.to_dense(), dense)
    assert np.array_equal(A.to_dense(rows), dense[rows])
    fortran = A.to_dense(rows=rows, order="F")
    assert fortran.flags.f_contiguous and np.array_equal(fortran, dense[rows])
    # permuted reorders rows and columns alike and keeps every stored entry, a -0 too
    square = rng.randn(7, 7) * (rng.rand(7, 7) < 0.5)
    S = SparseMatrix(7, 7, np.arange(8), np.arange(7), np.where(rng.rand(7) < 0.5, -0.0, 1.0))
    for M in (SparseMatrix.from_dense(square), S):
        B = M.permuted(rows)
        assert B.to_dense().tobytes() == M.to_dense()[np.ix_(rows, rows)].tobytes()
        assert all(np.all(np.diff(B.col(j)[0]) > 0) for j in range(7))


def test_shadow_identity_and_definition(rng):
    I = SparseMatrix.identity(6)
    assert np.array_equal(shadow(I, np.array([3])), [3])
    dense = rng.randn(6, 6) * (rng.rand(6, 6) < 0.5)
    A = SparseMatrix.from_dense(dense)
    J = np.array([1, 3])
    got = shadow(A, J)
    want = np.nonzero(np.abs(dense[:, [1, 3]]).sum(axis=1))[0]
    assert np.array_equal(got, want)


def test_shadow_union_property(rng):
    dense = rng.randn(9, 9) * (rng.rand(9, 9) < 0.3)
    A = SparseMatrix.from_dense(dense)
    J1, J2 = np.array([0, 2]), np.array([2, 5, 7])
    lhs = shadow(A, np.union1d(J1, J2))
    rhs = np.union1d(shadow(A, J1), shadow(A, J2))
    assert np.array_equal(lhs, rhs)


def test_extract_submatrix(rng):
    I6 = SparseMatrix.identity(6)
    assert extract_submatrix(I6, np.array([2]), np.array([2])) == np.array([[1.0]])
    dense = rng.randn(8, 8) * (rng.rand(8, 8) < 0.45)
    A = SparseMatrix.from_dense(dense)
    allidx = np.arange(8)
    assert np.array_equal(extract_submatrix(A, allidx, allidx), A.to_dense())
    I, J = np.array([1, 4, 6]), np.array([0, 5])
    assert np.array_equal(extract_submatrix(A, I, J), dense[np.ix_(I, J)])


def test_column_scale():
    I4 = SparseMatrix.identity(4)
    scaled, d = column_scale(I4)
    assert np.array_equal(scaled.to_dense(), np.eye(4))
    assert np.array_equal(d, np.ones(4))

    A = SparseMatrix.from_dense(np.array([[4.0, 1.0], [2.0, -8.0]]))
    scaled, d = column_scale(A)
    assert np.abs(scaled.to_dense()).max(axis=0) == pytest.approx([1.0, 1.0])
    # reconstruction: scaled * diag(1/d) == original
    rec = scaled.to_dense() / d[None, :]
    assert np.allclose(rec, A.to_dense(), rtol=1e-15)


def test_column_scale_zero_column():
    A = SparseMatrix.from_coo(2, 2, [0], [0], [1.0])
    with pytest.raises(ValueError, match="zero column"):
        column_scale(A)


def test_column_scale_stored_zero_column():
    # column 1 stores one entry, an exact zero: it is counted, but its maximum is 0
    A = SparseMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="^zero column: column maxima must be positive and finite$"):
        column_scale(A)


def test_matvec_identity_and_columns(rng):
    I = SparseMatrix.identity(5)
    x = rng.randn(5)
    for p in (HALF, DOUBLE):
        assert np.array_equal(matvec(I, x if p is DOUBLE else np.float64(np.float16(x)), p),
                              x if p is DOUBLE else np.float64(np.float16(x)))
    dense = rng.randn(6, 6) * (rng.rand(6, 6) < 0.6)
    A = SparseMatrix.from_dense(dense)
    for k in range(6):
        e = np.zeros(6)
        e[k] = 1.0
        assert np.array_equal(matvec(A, e, DOUBLE), dense[:, k])


def test_matvec_double_bitwise_matches_column_sweep(rng):
    dense = rng.randn(30, 30) * (rng.rand(30, 30) < 0.25)
    A = SparseMatrix.from_dense(dense)
    x = rng.randn(30)
    y = matvec(A, x, DOUBLE)
    ref = np.zeros(30)
    for j in range(30):
        ref = ref + dense[:, j] * x[j]
    assert np.array_equal(y, ref)


def test_matvec_half_error_bound(rng):
    dense = rng.randn(10, 10)
    dense = np.float64(np.float16(dense))
    A = SparseMatrix.from_dense(dense)
    x = np.float64(np.float16(rng.randn(10)))
    yh = matvec(A, x, HALF)
    yd = dense @ x
    bound = 2 * 10 * 2.0**-11 * np.abs(dense).sum(axis=1).max() * np.abs(x).max()
    assert np.abs(yh - yd).max() <= bound


UPPER = SparseMatrix.from_dense(np.array([[2.0, 1.0], [0.0, 3.0]]))


@pytest.mark.parametrize("call, name, shape", [
    (lambda: matvec(UPPER, np.ones(3), DOUBLE), "x", (3,)),
    (lambda: matvec(UPPER, np.ones((2, 1)), SINGLE), "x", (2, 1)),
    (lambda: matvec(UPPER, np.float64(1.0), HALF), "x", ()),
    (lambda: dd_residual(UPPER, np.ones(3), np.ones(2)), "x", (3,)),
    (lambda: dd_residual(UPPER, (np.ones(2), np.ones(3)), np.ones(2)), "x", (3,)),
    (lambda: dd_residual(UPPER, np.ones(2), np.ones((2, 2))), "b", (2, 2)),
    (lambda: dd_residual(UPPER, np.ones(2), np.ones(1)), "b", (1,)),
])
def test_matvec_and_dd_residual_refuse_a_vector_of_the_wrong_shape(call, name, shape):
    with pytest.raises(ValueError, match=rf"^dimension mismatch: {name} of shape {re.escape(str(shape))} "
                                         r"for a \(2, 2\) matrix, expected \(2,\)$"):
        call()


def test_rounded_drops_halved_entries():
    A = SparseMatrix.from_dense(np.array([[1.0, 1e-9], [0.0, 2.0]]))
    assert A.rounded(HALF).nnz == 2  # 1e-9 underflows to zero in half
