"""Every entry point that takes a system refuses bad input through one gate,
``precision.check_matrix``, with one exact message and before any dense copy."""

import numpy as np
import pytest

from spai_ir.precision import DOUBLE, HALF, SINGLE, dd_solve
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


# case -> (A, b, message)
MATRIX_CASES = {
    "2x3": (SparseMatrix.from_dense(np.ones((2, 3))), np.ones(2), "square matrix required, got 2x3"),
    "nan_in_A": (_diag(np.nan), np.ones(3), "matrix A has a NaN or infinite entry"),
    "inf_in_A": (_diag(np.inf), np.ones(3), "matrix A has a NaN or infinite entry"),
    "minus_inf_in_A": (_diag(-np.inf), np.ones(3), "matrix A has a NaN or infinite entry"),
}
RHS_CASES = {
    "b_too_long": (SparseMatrix.identity(3), np.ones(4), "right-hand side b has length 4, expected 3"),
    "b_scalar": (SparseMatrix.identity(3), np.float64(1.0), "right-hand side b has shape (), expected length 3"),
    "b_matrix": (SparseMatrix.identity(3), np.ones((3, 2)),
                 "right-hand side b has shape (3, 2), expected length 3"),
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
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[entry](A, b)
    assert type(info.value) is ValueError
    assert str(info.value) == message
