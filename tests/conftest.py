import hashlib

import numpy as np
import pytest

from spai_ir.krylov import GmresReport, apply_precond_matvec, precondition
from spai_ir.precision import (
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
    overflow,
    quiet,
)
from spai_ir.reference import find_matrix
from spai_ir.sparse import SparseMatrix, load_matrix_market, owners

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


def refuse_nan(values, what: str) -> None:
    """Fail the test if ``values`` hold a NaN: numpy picks a NaN's sign by
    array position, so the bytes of a NaN pin the layout, not the arithmetic."""
    if np.isnan(values).any():
        pytest.fail(f"{what} holds a NaN, whose sign bit no fingerprint can pin", pytrace=False)


def digest(arr: np.ndarray, dtype) -> str:
    """SHA-256 of an array's bytes in ``dtype``, for bit-exact fingerprints;
    an array that holds a NaN fails the test (:func:`refuse_nan`)."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    refuse_nan(arr, "a fingerprinted array")
    return hashlib.sha256(arr.tobytes()).hexdigest()


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


def many_slot_system() -> tuple[SparseMatrix, np.ndarray]:
    """A 4 x 30 matrix whose row 2 holds 30 entries beside rows of 1, so
    that ``row_plan`` gives it 30 slots, and an x for it.  Every value is a
    normal half value of magnitude 2**-5 to 2**6, so the pair is in every
    format, no half product overflows, and a half sum rounds."""
    rng = np.random.RandomState(30)
    v = rng.choice([-1.0, 1.0], 63) * (1.0 + rng.randint(0, 1024, 63) / 1024) * 2.0 ** rng.randint(-5, 6, 63)
    dense = np.zeros((4, 30))
    dense[2] = v[:30]
    dense[[0, 1, 3], [5, 0, 29]] = v[30:33]
    return SparseMatrix.from_dense(dense), v[33:]


def same_bits(got, want) -> bool:
    """Equal bytes, with a NaN compared by position only: numpy picks a
    NaN's sign by the position of its operands."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(got)
    return bool(np.array_equal(nan, np.isnan(want)) and got[~nan].tobytes() == want[~nan].tobytes())


def reference_sum(s: np.ndarray, p) -> float:
    """The pairwise tree over the terms ``s`` padded with -0 (+0 for no
    terms), each level a new array rounded to ``p``."""
    s = np.asarray(s, dtype=np.float64)
    size = 1 << max(len(s) - 1, 0).bit_length()
    s = np.concatenate([s, np.full(size - len(s), -0.0 if len(s) else 0.0)])
    while len(s) > 1:
        s = fl(s[0::2] + s[1::2], p)
    return float(s[0])


@quiet
def masked_sum(V, sizes, p) -> np.ndarray:
    """Oracle for a batch of lines of different sizes: line ``idx`` of ``V``
    along axis 1 cut to its first ``sizes[idx]`` terms (``sizes``
    broadcasts to the reduced shape) and summed alone by
    :func:`reference_sum`, never through ``fl_sum``; float64."""
    V = np.moveaxis(np.asarray(V, dtype=np.float64), 1, -1)
    sizes = np.broadcast_to(sizes, V.shape[:-1])
    out = np.empty(V.shape[:-1])
    for idx in np.ndindex(out.shape):
        out[idx] = reference_sum(V[idx][: sizes[idx]], p)
    return out


@quiet
def masked_dot(u, v, sizes, p) -> np.ndarray:
    """:func:`masked_sum` of the products of ``u`` and ``v``, each rounded to ``p``."""
    return masked_sum(fl(np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64), p), sizes, p)


@quiet
def masked_norm2(v, sizes, p) -> np.ndarray:
    """The rounded square root of :func:`masked_dot` of ``v`` with itself."""
    return fl(np.sqrt(masked_dot(v, v, sizes, p)), p)


def stored(A) -> SparseMatrix:
    """A :class:`SparseMatrix` that stores every entry of the dense ``A``
    that is not +0, a -0 included (``SparseMatrix.from_dense`` drops it)."""
    A = np.asarray(A, dtype=np.float64)
    cols, rows = np.nonzero(((A != 0.0) | np.signbit(A)).T)
    indptr = np.searchsorted(cols, np.arange(A.shape[1] + 1))
    return SparseMatrix(A.shape[0], A.shape[1], indptr, rows, A[rows, cols])


@quiet
def packed(f) -> tuple[np.ndarray, np.ndarray]:
    """The factors of the :class:`~spai_ir.precision.DenseLu` ``f`` as
    LAPACK's ``dgetrf`` packs them, in a new float64 n x n array in C
    order, and the row order ``perm``: row k of the factored matrix is row
    ``perm[k]`` of the input.  U lies on and above the diagonal and the
    multipliers of L below it, each moved by every later row interchange,
    as the elimination with whole-row swaps leaves them.  Below the band,
    where the store holds the zeros that no step touches, each column j
    holds 0 / u_jj (-0 under a negative pivot), the zero the full-block
    loop of :func:`reference_dense_lu` leaves there, so the fingerprints of
    the packed factors read as those of the full block."""
    n = len(f.piv)
    off, stride = f.ku, f.kl + f.ku  # DenseLu's band matrix: (i, j) at off + i + j * stride
    i, j = np.indices((n, n))
    diagonal = f.store[off + np.arange(n) * (stride + 1)]
    lu = np.where(i - j > f.kl, np.divide(f.store.dtype.type(0), diagonal)[j], 0.0).astype(np.float64)
    held = (i - j <= f.kl) & (j - i <= f.ku)
    lu[held] = f.store[off + i[held] + j[held] * stride]
    perm = np.arange(n)
    for k, p in enumerate(f.piv.tolist()):
        if p != k:
            lu[[k, p], :k] = lu[[p, k], :k]
            perm[[k, p]] = perm[[p, k]]
    return lu, perm


def signless_zeros(v) -> bytes:
    """The bytes of ``v`` in float64 with each -0 read as +0: the factors
    and solutions of the band contract match the full-block loops up to the
    sign of a zero."""
    return (np.asarray(v, dtype=np.float64) + 0.0).tobytes()


@quiet
def reference_dense_lu(A, uf, seen=None) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for :func:`spai_ir.precision.dense_lu`: its loop as it stood
    when every step updated the whole trailing block of one dense float64
    array and swapped whole rows, with the band contract's rule that an
    inf or NaN anywhere in the factors is an overflow, raised ahead of a
    zero pivot.  Returns that array, U on and above the diagonal and L
    below it, and the row order ``perm``: what :func:`packed` rebuilds from
    the band store, up to the sign of a zero (:func:`signless_zeros`).

    ``seen``, if given a set, collects the paths the input takes:
    ``"minus_zero"`` when the rounded input holds a -0,
    ``"nonfinite_pivot_row"`` when a step's pivot row right of the pivot
    holds an inf or NaN, ``"nonfinite_multipliers"`` when a step's
    multipliers do, and ``"zero_pivot_after_overflow"`` when a zero pivot
    meets factors that already hold one, which the overflow rule decides.
    """
    M = fl(np.array(A, dtype=np.float64), uf)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if seen is not None and np.any(np.signbit(M) & (M == 0.0)):
        seen.add("minus_zero")

    def zero_pivot(k):
        if not np.all(np.isfinite(M)):
            if seen is not None:
                seen.add("zero_pivot_after_overflow")
            return overflow(uf, "the factorization")
        return SingularMatrixError(f"singular in the factorization in {uf.name}: zero pivot at step {k}")

    perm = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        if M[p, k] == 0.0:
            raise zero_pivot(k)
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
        raise zero_pivot(n - 1)
    if not np.all(np.isfinite(M)):
        raise overflow(uf, "the factorization")
    return M, perm


@quiet
def reference_substitute(lu: np.ndarray, b, p: Precision) -> np.ndarray:
    """Oracle for :meth:`spai_ir.precision.DenseLu.substitute`: its loops as
    they stood when every step ran over whole columns of the packed factors
    ``lu``, for ``b`` already in pivot order."""
    x = fl(np.array(b, dtype=np.float64), p, inplace=True)
    for k in range(lu.shape[0] - 1):
        x[k + 1 :] = fl(x[k + 1 :] - fl(lu[k + 1 :, k] * x[k], p), p)
    for k in range(lu.shape[0] - 1, -1, -1):
        x[k] = fl(x[k] / lu[k, k], p)
        x[:k] = fl(x[:k] - fl(lu[:k, k] * x[k], p), p)
    return x


@quiet
def reference_band_substitute(f, b, p: Precision) -> np.ndarray:
    """Oracle for the bits of :meth:`spai_ir.precision.DenseLu.substitute`:
    its loops over the reach tables of the band store of ``f`` as they
    stood with x in float64 and each product and difference rounded to
    ``p`` by ``fl``, for ``b`` in the row order of the factored matrix."""
    store, off, stride = f.store.astype(np.float64), f.ku, f.kl + f.ku
    x = fl(np.array(b, dtype=np.float64), p, inplace=True)
    n = len(x)
    for k in range(n - 1):
        pk, end, at = int(f.piv[k]), f.l_end[k], off + k * stride
        x[[k, pk]] = x[[pk, k]]
        x[k + 1 : end] = fl(x[k + 1 : end] - fl(store[at + k + 1 : at + end] * x[k], p), p)
    for k in range(n - 1, -1, -1):
        start, at = f.u_start[k], off + k * stride
        x[k] = fl(x[k] / store[at + k], p)
        x[start:k] = fl(x[start:k] - fl(store[at + start : at + k] * x[k], p), p)
    return x


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
def reference_dd_residual(A: SparseMatrix, x, b) -> np.ndarray:
    """Oracle for :func:`spai_ir.precision.dd_residual`: its loop as it
    stood when it accumulated through padded row slots in the natural row
    order, each slot gathered from and scattered back to its rows.

    The slots are ``(rows, cols, vals)`` triplets in which each row index
    appears at most once per slot and a row's slots are ordered by
    ascending column.
    """
    cols, rows = owners(A.indptr), A.indices
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], A.data[order]
    starts = np.searchsorted(r, np.arange(A.n_rows))
    pos = np.arange(r.size) - starts[r]
    width = int(pos.max()) + 1 if r.size else 0
    slots = []
    for pslot in range(width):
        m = pos == pslot
        slots.append((r[m], c[m], v[m]))

    if not isinstance(x, tuple):
        x = (x, np.zeros(len(x)))
    xh, xl = (np.asarray(w, dtype=np.float64) for w in x)
    b = np.asarray(b, dtype=np.float64)
    sh = np.zeros_like(b)
    sl = np.zeros_like(b)
    for rows, cols, vals in slots:
        ph, pl = dd_mul(vals, np.zeros_like(vals), xh[cols], xl[cols])
        sh[rows], sl[rows] = dd_add(sh[rows], sl[rows], ph, pl)
    return dd_add(b, np.zeros_like(b), -sh, -sl)[0]


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
    z = fl(precondition(P, r, up, "the preconditioned right-hand side"), ug)
    beta = fl_norm2(z, ug)
    if seen is not None and not np.isfinite(beta):
        seen.add("ug_overflow")
    if beta == 0.0:
        solved = not r.any()
        return np.zeros(n), GmresReport(iters=0, relres_history=[0.0 if solved else 1.0], breakdown=False,
                                        converged=solved)

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


@quiet
def reference_solve_ls(Abar, ebar, m, p, uf: Precision):
    """Oracle for :func:`spai_ir.spai.solve_ls_batch`: its Householder loop
    as it stood when every format computed in float64 and rounded each
    operation to ``uf`` by :func:`fl`, with ``v^T v`` and ``v^T trail``
    reduced apart, and every sum taken over the item's own rows alone
    (:func:`masked_sum`)."""
    B = np.asarray(Abar, dtype=np.float64)
    e = np.asarray(ebar, dtype=np.float64)
    m = np.asarray(m, dtype=np.int64)
    deficient = np.asarray(p, dtype=np.int64) > m
    p = np.where(deficient, 0, p)
    N, M, P = B.shape
    steps = int(p.max()) if N else 0
    W = np.concatenate([B, e[:, :, None]], axis=2)
    row_ok = np.arange(M) < m[:, None]
    for j in range(steps):
        live = (j < p) & ~deficient
        rows = np.maximum(m - j, 0)
        x = W[:, j:, j]
        nx = masked_norm2(x, rows, uf)
        deficient |= live & (nx == 0.0)
        live &= nx != 0.0
        alpha = np.where(x[:, 0] >= 0.0, -nx, nx)
        v = x.copy()
        v[:, 0] = fl(x[:, 0] - alpha, uf)
        vtv = masked_dot(v, v, rows, uf)
        trail = W[:, j:, j + 1 :]
        s = masked_dot(v[:, :, None], trail, rows[:, None], uf)
        coef = fl(fl(2.0 * s, uf) / vtv[:, None], uf)
        new = fl(trail - fl(v[:, :, None] * coef[:, None, :], uf), uf)
        upd = live & (vtv != 0.0)
        W[:, j:, j + 1 :] = np.where(upd[:, None, None], new, trail)
        W[live, j, j] = alpha[live]
        W[live, j + 1 :, j] = 0.0
    mbar = np.zeros((N, P))
    for c in range(steps - 1, -1, -1):
        s = masked_dot(W[:, c, c + 1 : P], mbar[:, c + 1 :], np.maximum(p - c - 1, 0), uf)
        mbar[:, c] = np.where(c < p, fl(fl(W[:, c, P] - s, uf) / W[:, c, c], uf), 0.0)
    y = np.zeros((N, M))
    for c in range(steps):
        t = fl(y + fl(B[:, :, c] * mbar[:, c, None], uf), uf)
        y = np.where((c < p)[:, None], t, y)
    sbar = np.where(row_ok, fl(y - e, uf), 0.0)
    return mbar, sbar, deficient


@quiet
def reference_rho_scores(sbar, C, m, uf: Precision):
    """Oracle for :func:`spai_ir.spai.rho_scores`: its scorer as it stood
    when every format computed in float64 and rounded by :func:`fl`, every
    sum taken over the item's own rows alone (:func:`masked_sum`)."""
    sbar = np.asarray(sbar, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    m = np.asarray(m, dtype=np.int64)
    ss = masked_dot(sbar, sbar, m, uf)
    dots = masked_dot(sbar[:, :, None], C, m[:, None], uf)
    dens = masked_dot(C, C, m[:, None], uf)
    q = np.where(dens == 0.0, 0.0, fl(fl(dots * dots, uf) / dens, uf))
    rad = np.maximum(fl(ss[:, None] - q, uf), 0.0)
    return fl(np.sqrt(rad), uf)
