"""Every entry point that takes a system refuses bad input through one gate,
``precision.check_matrix``, with one exact message and before any dense copy."""

import numpy as np
import pytest

from spai_ir.cli import main
from spai_ir.precision import DOUBLE, HALF, SINGLE, SingularMatrixError, dd_solve
from spai_ir.refine import IrConfig, prepare_solver, run_ir
from spai_ir.spai import SpaiParams, build_left_preconditioner, build_spai
from spai_ir.sparse import SparseMatrix
from spai_ir.tables import run_sweep

PARAMS = SpaiParams(eps=0.3, uf=HALF)
CFG = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="spai", spai=PARAMS)

# entry point -> call on (A, b); the b-taking ones are run_ir and dd_solve
ENTRY_POINTS = {
    "prepare_solver": lambda A, b: prepare_solver(A, CFG),
    "run_ir": lambda A, b: run_ir(A, b, CFG),
    "dd_solve": lambda A, b: dd_solve(A, b),
    "run_sweep": lambda A, b: run_sweep(A, "bad", [0.3], [SINGLE]),
    "build_spai": lambda A, b: build_spai(A, PARAMS),
    "build_left_preconditioner": lambda A, b: build_left_preconditioner(A, PARAMS),
}
TAKES_B = ("run_ir", "dd_solve")


def _diag(value):
    return SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, value, 1.0])


def _without(kind, i=2, n=4):
    """The tridiagonal n x n matrix of 1 and 0.5 with its row or column i emptied."""
    dense = np.eye(n) + np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
    if kind == "row":
        dense[i, :] = 0.0
    else:
        dense[:, i] = 0.0
    return SparseMatrix.from_dense(dense)


def _stored_zero_column():
    """diag(1, 0, 1) with the zero stored: a stored zero is not a nonzero entry."""
    return SparseMatrix(3, 3, np.array([0, 1, 2, 3]), np.array([0, 1, 2]), np.array([1.0, 0.0, 1.0]))


# case -> (A, b, message); the singular cases raise SingularMatrixError, the rest ValueError
MATRIX_CASES = {
    "2x3": (SparseMatrix.from_dense(np.ones((2, 3))), np.ones(2), "square matrix required, got 2x3"),
    "nan_in_A": (_diag(np.nan), np.ones(3), "matrix A has a NaN or infinite entry"),
    "inf_in_A": (_diag(np.inf), np.ones(3), "matrix A has a NaN or infinite entry"),
    "minus_inf_in_A": (_diag(-np.inf), np.ones(3), "matrix A has a NaN or infinite entry"),
    "zero_row": (_without("row"), np.ones(4), "matrix A is singular: row 2 has no nonzero entry"),
    "zero_column": (_without("column"), np.ones(4), "matrix A is singular: column 2 has no nonzero entry"),
    "stored_zero": (_stored_zero_column(), np.ones(3), "matrix A is singular: row 1 has no nonzero entry"),
}
SINGULAR_CASES = ("zero_row", "zero_column", "stored_zero")
RHS_CASES = {
    "b_too_long": (SparseMatrix.identity(3), np.ones(4),
                   "dimension mismatch: b of shape (4,) for a (3, 3) matrix, expected (3,)"),
    "b_scalar": (SparseMatrix.identity(3), np.float64(1.0),
                 "dimension mismatch: b of shape () for a (3, 3) matrix, expected (3,)"),
    "b_matrix": (SparseMatrix.identity(3), np.ones((3, 2)),
                 "dimension mismatch: b of shape (3, 2) for a (3, 3) matrix, expected (3,)"),
    "nan_in_b": (SparseMatrix.identity(3), np.array([1.0, np.nan, 1.0]),
                 "right-hand side b has a NaN or infinite entry"),
}
CASES = [(entry, case) for entry in ENTRY_POINTS for case in MATRIX_CASES] + [
    (entry, case) for entry in TAKES_B for case in RHS_CASES
]


@pytest.mark.parametrize("entry,case", CASES)
def test_bad_input_gets_the_one_message_before_any_dense_copy(monkeypatch, entry, case):
    A, b, message = {**MATRIX_CASES, **RHS_CASES}[case]
    monkeypatch.setattr(SparseMatrix, "to_dense", lambda self, *args, **kwargs: pytest.fail("bad input was densified"))
    error = SingularMatrixError if case in SINGULAR_CASES else ValueError
    with pytest.raises(error) as info:
        ENTRY_POINTS[entry](A, b)
    assert type(info.value) is error
    assert str(info.value) == message


def test_singular_input_is_checked_after_finiteness_and_before_b():
    # a NaN in A names the NaN, however empty its rows; an empty row is named
    # before a bad right-hand side
    A = SparseMatrix(3, 3, np.array([0, 1, 1, 2]), np.array([0, 2]), np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="^matrix A has a NaN or infinite entry$"):
        dd_solve(A, np.ones(3))
    with pytest.raises(SingularMatrixError, match="^matrix A is singular: row 1 has no nonzero entry$"):
        dd_solve(_without("row", i=1), np.ones(5))


@pytest.mark.parametrize("kind", ["row", "column"])
@pytest.mark.parametrize("command", [
    ["solve", "--solver", "spai"], ["solve", "--solver", "lu"], ["solve", "--solver", "sir"],
    ["solve", "--solver", "none"], ["sweep"],
])
def test_cli_names_an_empty_row_or_column_in_one_error_line(tmp_path, capsys, command, kind):
    A = _without(kind)
    entries = [f"{i + 1} {j + 1} {v}\n" for j in range(4) for i, v in zip(*A.col(j))]
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n4 4 {A.nnz}\n" + "".join(entries))
    assert main(command + ["--matrix", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix A is singular: {kind} 2 has no nonzero entry\n"
