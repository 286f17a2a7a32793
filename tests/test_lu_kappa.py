"""The kappa(PA) product of the LU solver against the computation it replaced.

``LuPreconditioner.apply_exact`` forms P A in plain double by LAPACK's
``dgbtrs`` on the band store itself, cast to float64 when it is float32
(``DenseLu.solve``).  The reference here is the computation it replaced:
the packed float64 factors that conftest's ``packed`` rebuilds from the
store, A's rows in pivot order and two ``scipy.linalg.solve_triangular``
calls.  Both are plain double in
different operation orders, so they need not agree bit for bit; they must
agree within 1e-13 relative in the max norm, the tolerance the README
gives this diagnostic.  Every case gets the one layout, LAPACK's band
matrix with column stride kl + ku and ku >= kl: ``conv_diff_225``,
RCM-ordered, in half; an input whose stored entries round to -0 in half,
which ``dense_lu`` reads as the +0 they stand for; a dense 5 x 5 matrix,
whose band is as wide as the matrix (kl = ku = 4, a 9 x 5 store); a
1 x 1 matrix; and an equilibrated LU (``colscale_80`` scaled by 3e4, whose
half factors overflow unscaled).
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import load_synthetic, packed, stored
from spai_ir.precision import DOUBLE, HALF, SINGLE, dense_lu
from spai_ir.refine import IrConfig, LuPreconditioner, prepare_solver
from spai_ir.sparse import SparseMatrix

HSD = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="lu")


def reference_apply_exact(pre: LuPreconditioner, A: SparseMatrix) -> np.ndarray:
    """P A as ``apply_exact`` formed it from the packed factors."""
    lu, perm = packed(pre.factors)
    Y = A.to_dense(rows=pre.order[perm])
    if pre.r is not None:
        Y *= pre.mu
        Y *= pre.r[perm][:, None]
    Y = solve_triangular(lu, Y, lower=True, unit_diagonal=True)
    Y = solve_triangular(lu, Y)
    if pre.s is not None:
        Y *= pre.s[:, None]
    return Y[pre.inv_order]


def scaled(A: SparseMatrix, factor: float) -> SparseMatrix:
    return SparseMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * factor)


def band_case():
    A = load_synthetic("conv_diff_225")
    return A, prepare_solver(A, HSD)


def minus_zero_case():
    A = stored(np.eye(8) + np.diag(np.full(7, -1e-10), -1) + np.diag(np.full(7, 0.5), 1))
    return A, LuPreconditioner(dense_lu(A, HALF), np.arange(8))


def wide_case():
    A = SparseMatrix.from_dense(4.0 * np.eye(5) + np.arange(25.0).reshape(5, 5) % 3 - 1.0)
    return A, LuPreconditioner(dense_lu(A, HALF), np.arange(5))


def one_by_one_case():
    A = SparseMatrix.from_dense(np.array([[-3.0]]))
    return A, LuPreconditioner(dense_lu(A, HALF), np.arange(1))


def equilibrated_case():
    A = scaled(load_synthetic("colscale_80"), 3.0e4)
    return A, prepare_solver(A, HSD)


# name: (the case, whether its LU is equilibrated)
CASES = {
    "band": (band_case, False),
    "minus_zero": (minus_zero_case, False),
    "wide": (wide_case, False),
    "one_by_one": (one_by_one_case, False),
    "equilibrated": (equilibrated_case, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_apply_exact_agrees_with_packed_triangular_solves(name):
    make, equilibrated = CASES[name]
    A, pre = make()
    f = pre.factors
    assert f.store.size == A.n_rows * (f.kl + f.ku + 1) and f.ku >= f.kl  # n columns of stride kl + ku, plus one
    assert (pre.r is not None) == equilibrated
    got, want = pre.apply_exact(A), reference_apply_exact(pre, A)
    assert np.isfinite(want).all()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
