import hashlib

import numpy as np
import pytest

from spai_ir.precision import dd_solve
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
