import hashlib

import numpy as np
import pytest

from spai_ir.krylov import GmresReport, PrecisionOverflowSignal, _apply_p, apply_precond_matvec
from spai_ir.precision import (
    DenseLu,
    OverflowInFactorizationError,
    Precision,
    SingularMatrixError,
    _renorm,
    dd_add,
    dd_mul,
    dd_solve,
    fl,
    fl_dot,
    fl_norm2,
    fl_op,
    quiet,
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


@quiet
def reference_dense_lu(A, uf, seen=None) -> DenseLu:
    """Oracle for :func:`spai_ir.precision.dense_lu`: its loop as it stood
    when every step updated the whole trailing block.

    ``seen``, if given a set, collects the paths the input takes:
    ``"minus_zero"`` when the rounded input holds a -0,
    ``"nonfinite_pivot_row"`` when a step's pivot row right of the pivot
    holds an inf or NaN, and ``"nonfinite_multipliers"`` when a step's
    multipliers do.
    """
    M = fl(np.array(A, dtype=np.float64), uf)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if seen is not None and np.any(np.signbit(M) & (M == 0.0)):
        seen.add("minus_zero")
    perm = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        if M[p, k] == 0.0:
            raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {k}")
        if p != k:
            M[[k, p]] = M[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        col = M[k + 1 :, k]
        col /= M[k, k]
        col[...] = fl(col, uf)
        if seen is not None:
            if not np.all(np.isfinite(M[k, k + 1 :])):
                seen.add("nonfinite_pivot_row")
            if not np.all(np.isfinite(col)):
                seen.add("nonfinite_multipliers")
        trailing = M[k + 1 :, k + 1 :]
        trailing -= fl(np.outer(col, M[k, k + 1 :]), uf)
        trailing[...] = fl(trailing, uf)
    if M[n - 1, n - 1] == 0.0:
        raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {n - 1}")
    if not np.all(np.isfinite(M)):
        raise OverflowInFactorizationError(f"overflow in {uf.name}")
    return DenseLu(lu=M, perm=perm)


def dd_div(ah, al, bh, bl):
    """Double-double quotient (ah + al) / (bh + bl), normalized."""
    q1 = ah / bh
    ph, pl = dd_mul(q1, np.zeros_like(q1) if isinstance(q1, np.ndarray) else 0.0, bh, bl)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = (rh + rl) / bh
    return _renorm(q1, q2)


def reference_dd_lu_solve(A: np.ndarray, b: np.ndarray):
    """Oracle for :func:`spai_ir.precision.dd_solve`: dense LU factorization
    and solve carried entirely in double-double.

    Cubic in n with heavy per-element cost, so for small sizes only.
    """
    Ah = np.array(A, dtype=np.float64)
    Al = np.zeros_like(Ah)
    n = Ah.shape[0]
    bh = np.asarray(b, dtype=np.float64).copy()
    bl = np.zeros_like(bh)
    for k in range(n):
        j = k + int(np.argmax(np.abs(Ah[k:, k])))
        if Ah[j, k] == 0.0:
            raise SingularMatrixError("singular")
        if j != k:
            Ah[[k, j]] = Ah[[j, k]]
            Al[[k, j]] = Al[[j, k]]
            bh[k], bh[j] = bh[j], bh[k]
            bl[k], bl[j] = bl[j], bl[k]
        if k == n - 1:
            break
        mh, ml = dd_div(Ah[k + 1 :, k], Al[k + 1 :, k], Ah[k, k], Al[k, k])
        Ah[k + 1 :, k] = mh
        Al[k + 1 :, k] = ml
        ph, pl = dd_mul(mh[:, None], ml[:, None], Ah[k, k + 1 :][None, :], Al[k, k + 1 :][None, :])
        Ah[k + 1 :, k + 1 :], Al[k + 1 :, k + 1 :] = dd_add(
            Ah[k + 1 :, k + 1 :], Al[k + 1 :, k + 1 :], -ph, -pl
        )
    for k in range(n):
        ph, pl = dd_mul(Ah[k + 1 :, k], Al[k + 1 :, k], bh[k], bl[k])
        bh[k + 1 :], bl[k + 1 :] = dd_add(bh[k + 1 :], bl[k + 1 :], -ph, -pl)
    for k in range(n - 1, -1, -1):
        bh[k], bl[k] = dd_div(bh[k], bl[k], Ah[k, k], Al[k, k])
        ph, pl = dd_mul(Ah[:k, k], Al[:k, k], bh[k], bl[k])
        bh[:k], bl[:k] = dd_add(bh[:k], bl[:k], -ph, -pl)
    return bh, bl


@quiet
def reference_pgmres_left(A: SparseMatrix, P, r: np.ndarray, tau: float, ug: Precision, up: Precision,
                          seen=None, collect_diagnostics=False):
    """Oracle for :func:`spai_ir.krylov.pgmres_left`: its loop as it stood
    when every operation ran in float64 and was rounded to ``ug`` by
    :func:`fl` or :func:`fl_op`, with the basis stored as columns, and
    before it stopped at an overflow of ``ug``.

    ``seen``, if given a set, collects ``"ug_overflow"`` when the norm of
    the rounded right-hand side, an Arnoldi norm or a Givens denominator is
    not finite.  With ``collect_diagnostics`` the result has a third entry,
    the Frobenius norm of ``V^T V - I`` over the basis built (``None`` when
    no step was taken): the loss of orthogonality of the MGS basis.
    """
    n = A.n_rows
    r = np.asarray(r, dtype=np.float64)
    z = _apply_p(P, r, up)
    if not np.all(np.isfinite(z)):
        raise PrecisionOverflowSignal("overflow while preconditioning the right-hand side")
    z = fl(z, ug)
    beta = fl_norm2(z, ug)
    if seen is not None and not np.isfinite(beta):
        seen.add("ug_overflow")
    if beta == 0.0:
        return np.zeros(n), GmresReport(iters=0, relres_history=[0.0], breakdown=False, converged=True)

    m = n
    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[:, 0] = fl(z / beta, ug)
    relres_history = [1.0]
    breakdown = False
    converged = False
    verify_breakdown = False
    k = 0

    for j in range(m):
        w = apply_precond_matvec(A, P, V[:, j], up)
        w = fl(w, ug)
        for i in range(j + 1):
            hij = fl_dot(V[:, i], w, ug)
            H[i, j] = hij
            w = fl(w - fl(hij * V[:, i], ug), ug)
        hnext = fl_norm2(w, ug)
        if seen is not None and not np.isfinite(hnext):
            seen.add("ug_overflow")
        H[j + 1, j] = hnext

        for i in range(j):
            t1 = fl_op("add", fl_op("mul", cs[i], H[i, j], p=ug), fl_op("mul", sn[i], H[i + 1, j], p=ug), p=ug)
            t2 = fl_op("sub", fl_op("mul", cs[i], H[i + 1, j], p=ug), fl_op("mul", sn[i], H[i, j], p=ug), p=ug)
            H[i, j], H[i + 1, j] = t1, t2
        denom = fl_op(
            "sqrt",
            fl_op("add", fl_op("mul", H[j, j], H[j, j], p=ug), fl_op("mul", hnext, hnext, p=ug), p=ug),
            p=ug,
        )
        if seen is not None and not np.isfinite(denom):
            seen.add("ug_overflow")
        if denom == 0.0:
            breakdown = True
            break
        cs[j] = fl_op("div", H[j, j], denom, p=ug)
        sn[j] = fl_op("div", hnext, denom, p=ug)
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = fl_op("mul", -sn[j], g[j], p=ug)
        g[j] = fl_op("mul", cs[j], g[j], p=ug)

        k = j + 1
        relres = abs(g[j + 1]) / beta
        relres_history.append(float(relres))
        if hnext == 0.0:
            # basis cannot be extended; the Givens estimate reads zero here
            # whether this is a genuine happy breakdown or an underflow, so
            # the true preconditioned residual is checked after the solve
            verify_breakdown = True
            break
        V[:, j + 1] = fl(w / hnext, ug)
        if relres <= tau:
            converged = True
            break

    # Hessenberg least squares in the GMRES working precision
    y = np.zeros(k)
    for c in range(k - 1, -1, -1):
        s = fl_dot(H[c, c + 1 : k], y[c + 1 : k], ug) if c + 1 < k else 0.0
        y[c] = fl_op("div", fl_op("sub", g[c], s, p=ug), H[c, c], p=ug)
    d = np.zeros(n)
    for c in range(k):
        d = fl(d + fl(y[c] * V[:, c], ug), ug)

    if verify_breakdown:
        q = apply_precond_matvec(A, P, d, up)
        true_rel = fl_norm2(fl(z - q, ug), ug) / beta
        relres_history[-1] = float(true_rel)
        if true_rel <= tau:
            converged = True
        else:
            breakdown = True

    report = GmresReport(iters=k, relres_history=relres_history, breakdown=breakdown, converged=converged)
    if not collect_diagnostics:
        return d, report
    ortho_defect = None
    if k:
        # the (k+1)-th basis vector exists only when the loop extended it
        cols = k if (breakdown or verify_breakdown) else k + 1
        Vk = V[:, :cols]
        gram = Vk.T @ Vk
        ortho_defect = float(np.linalg.norm(gram - np.eye(gram.shape[0]), "fro"))
    return d, report, ortho_defect
