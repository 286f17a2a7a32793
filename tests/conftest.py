import hashlib

import numpy as np
import pytest

from spai_ir.precision import (
    DenseLu,
    OverflowInFactorizationError,
    SingularMatrixError,
    dd_solve,
    round_array,
)
from spai_ir.reference import find_matrix
from spai_ir.sparse import SparseMatrix, load_matrix_market

_loaded: dict[str, SparseMatrix] = {}
_refs: dict[tuple, tuple] = {}


def load_synthetic(name: str) -> SparseMatrix:
    if name not in _loaded:
        path = find_matrix(name)
        assert path is not None, f"shipped matrix {name} missing; run tools/gen_matrices.py"
        _loaded[name] = load_matrix_market(path)
    return _loaded[name]


def load_named(name: str) -> SparseMatrix:
    """Benchmark matrix, or skip if the file was not supplied."""
    if name not in _loaded:
        path = find_matrix(name)
        if path is None:
            pytest.skip(
                f"benchmark matrix {name}.mtx not present; place it in "
                f"$SPAI_IR_MATRIX_DIR to enable this check"
            )
        _loaded[name] = load_matrix_market(path)
    return _loaded[name]


def reference_solution(A: SparseMatrix, b: np.ndarray):
    """Cached double-double reference solve keyed on matrix identity."""
    key = (id(A), b.tobytes())
    if key not in _refs:
        _refs[key] = dd_solve(A, b)
    return _refs[key]


def digest(arr: np.ndarray, dtype) -> str:
    """SHA-256 of an array's bytes in ``dtype``, for bit-exact fingerprints."""
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


@pytest.fixture
def rng():
    return np.random.RandomState(12345)


def random_dd_sparse(rng, n: int, fill: float = 0.35) -> np.ndarray:
    """Random sparse diagonally dominant test matrix (dense storage)."""
    A = rng.randn(n, n) * (rng.rand(n, n) < fill)
    np.fill_diagonal(A, 0.0)
    diag = np.abs(A).sum(axis=1) + 1.0 + rng.rand(n)
    A[np.arange(n), np.arange(n)] = diag
    return A


def reference_dense_lu(A, uf, seen=None) -> DenseLu:
    """Oracle for :func:`spai_ir.precision.dense_lu`: its loop as it stood
    when every step updated the whole trailing block.

    ``seen``, if given a set, collects the paths the input takes:
    ``"minus_zero"`` when the rounded input holds a -0,
    ``"nonfinite_pivot_row"`` when a step's pivot row right of the pivot
    holds an inf or NaN, and ``"nonfinite_multipliers"`` when a step's
    multipliers do.
    """
    M = round_array(np.array(A, dtype=np.float64), uf)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if seen is not None and np.any(np.signbit(M) & (M == 0.0)):
        seen.add("minus_zero")
    perm = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n - 1):
            p = k + int(np.argmax(np.abs(M[k:, k])))
            if M[p, k] == 0.0:
                raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {k}")
            if p != k:
                M[[k, p]] = M[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            col = M[k + 1 :, k]
            col /= M[k, k]
            col[...] = round_array(col, uf)
            if seen is not None:
                if not np.all(np.isfinite(M[k, k + 1 :])):
                    seen.add("nonfinite_pivot_row")
                if not np.all(np.isfinite(col)):
                    seen.add("nonfinite_multipliers")
            trailing = M[k + 1 :, k + 1 :]
            trailing -= round_array(np.outer(col, M[k, k + 1 :]), uf)
            trailing[...] = round_array(trailing, uf)
    if M[n - 1, n - 1] == 0.0:
        raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {n - 1}")
    if not np.all(np.isfinite(M)):
        raise OverflowInFactorizationError(f"overflow in {uf.name}")
    return DenseLu(lu=M, perm=perm)
