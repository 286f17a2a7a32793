"""Adaptive sparse approximate inverse (Grote & Huckle, SISC 1997).

M ~= inv(B) is built column by column: each column solves a small dense
least-squares problem on its pattern, and while its residual is above the
tolerance the pattern grows by the candidates that most reduce it.  All
arithmetic runs in the build precision; single computes natively in
float32, with the bits of the emulated loop.

Columns are solved in zero-padded batches, and each item has the bits of
its block solved alone: a reduction over a padded line adds only -0, the
identity (:func:`_padding`), or zeros that change at most the sign of a
zero sum.  A column's block keeps its rows and columns in arrival order,
the previous round's first, so its Householder factorization is carried
from round to round (:func:`_extend_qr`); only the factorization sees that
order, and the solution, residual and scores keep ascending index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

# fl_op stays bound here although unused: perfbench/tracer.py wraps spai.fl_op
from .precision import QUAD, SINGLE, Precision, check_matrix, fl, fl_dot, fl_norm2, fl_op, fl_sum, quiet  # noqa: F401
# shadow and extract_submatrix stay bound here for perfbench/tracer.py
from .sparse import SparseMatrix, batch_keys, column_scale, extract_blocks, extract_submatrix  # noqa: F401
from .sparse import in_arrival_order, keys_to_batch, one_set, owners, shadow, shadows, take_sets  # noqa: F401
from .sparse import arrived_since, distinct, to_index_order

__all__ = [
    "SpaiParams",
    "SpaiPreconditioner",
    "RankDeficiencySignal",
    "build_spai",
    "build_left_preconditioner",
    "solve_ls_batch",
    "solve_column_ls",
    "rho_scores",
    "augment_pattern",
    "augment_patterns",
]

COL_OK = "ok"
COL_OVERFLOW = "overflow"
COL_STAGNATED = "stagnated"
COL_RANK_DEFICIENT = "rank_deficient"


class RankDeficiencySignal(ArithmeticError):
    """A least-squares subproblem became numerically rank deficient."""


@dataclass(frozen=True)
class SpaiParams:
    """Inputs of the adaptive construction: the per-column residual
    tolerance ``eps``, at most ``alpha`` augmentation rounds (``None``
    means ceil(n / beta); a column that reaches it stops with status ``ok``
    even above ``eps``), at most ``beta`` indices added per round, and the
    build precision ``uf``.  Every column starts from the identity pattern
    ``{k}``, so the input needs a nonzero diagonal."""

    eps: float
    alpha: int | None = None
    beta: int = 8
    uf: Precision = SINGLE

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        for name, count in (("alpha", self.alpha), ("beta", self.beta)):
            if count is not None and not isinstance(count, Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")
        if self.uf == QUAD:
            raise ValueError("quad-emulated is a residual precision only; it cannot build the preconditioner")

    def resolved_alpha(self, n: int) -> int:
        return self.alpha if self.alpha is not None else math.ceil(n / self.beta)


@dataclass
class SpaiPreconditioner:
    """The sparse ``P``, which answers the preconditioner interface
    (``apply``, ``apply_exact``, ``nnz``), and per column: the final
    residual 2-norm in the build precision (inf if it never solved), the
    number of augmentations, and the status ``ok | overflow | stagnated |
    rank_deficient``."""

    P: SparseMatrix
    col_resnorm: np.ndarray
    col_rounds: np.ndarray
    col_status: list[str]
    params: SpaiParams

    @property
    def nnz(self) -> int:
        return self.P.nnz

    def apply(self, v: np.ndarray, p: Precision) -> np.ndarray:
        """``P @ v`` rounded to ``p`` (:meth:`SparseMatrix.apply`)."""
        return self.P.apply(v, p)

    def apply_exact(self, A: SparseMatrix) -> np.ndarray:
        """The dense product ``P @ A`` in plain double (diagnostics)."""
        return self.P.apply_exact(A)

    @property
    def satisfied(self) -> np.ndarray:
        """Whether each column met the tolerance: its residual is at most eps."""
        return self.col_resnorm <= self.params.eps

    @property
    def all_satisfied(self) -> bool:
        return bool(np.all(self.satisfied))

    def stats_dict(self) -> dict:
        return {
            "nnz": self.nnz,
            "eps": self.params.eps,
            "uf": self.params.uf.name,
            "all_satisfied": self.all_satisfied,
            "max_col_resnorm": float(np.max(self.col_resnorm)) if self.col_resnorm.size else 0.0,
            "total_rounds": int(np.sum(self.col_rounds)),
            "abnormal_columns": sum(1 for s in self.col_status if s != COL_OK),
        }


@quiet
def solve_ls_batch(Abar: np.ndarray, ebar: np.ndarray, m, p, uf: Precision):
    """Householder least squares min ||A_i x - e_i||_2 for a batch of blocks, all in ``uf``.

    ``Abar`` (N, M, P) and ``ebar`` (N, M) are zero-padded: item i is the
    block ``Abar[i, :m[i], :p[i]]`` with right-hand side ``ebar[i, :m[i]]``.
    Returns ``(mbar, sbar, deficient)``: mbar (N, P) and the residual
    ``sbar = A_i mbar_i - e_i`` (N, M), zero past each item's size, and a
    flag per item, set for a wide block or a zero pivot column, whose mbar
    and sbar then mean nothing.
    """
    N, M, P = np.shape(Abar)
    qr, deficient = _extend_qr(_Qr.empty(N, uf), Abar, ebar, m, p, uf)
    mbar = _back_substitute(qr, uf)
    sbar = _residual(Abar, ebar, mbar, m, qr.p, uf)
    return np.pad(mbar, ((0, 0), (0, P - mbar.shape[1]))), sbar, deficient


def _dtype(uf: Precision):
    """A build's storage: float32 for single, which computes natively, and
    float64 for double and for half, whose float64 round trip through
    :func:`fl` is faster than float16 in numpy."""
    return np.float32 if uf == SINGLE else np.float64


class _Qr(NamedTuple):
    """Householder factorizations of a batch of blocks, item i with ``m[i]``
    rows and ``p[i]`` columns in its block's order.  Column j of ``W``
    holds R above the diagonal and the reflector v_j from it down;
    ``rdiag`` holds R's diagonal, ``vtv`` each v_j^T v_j, ``qte`` Q^T e."""

    W: np.ndarray
    rdiag: np.ndarray
    vtv: np.ndarray
    qte: np.ndarray
    m: np.ndarray
    p: np.ndarray

    @classmethod
    def empty(cls, N: int, uf: Precision) -> "_Qr":
        """N factorizations of blocks with no rows and no columns."""
        dt, none = _dtype(uf), np.zeros(N, np.int64)
        return cls(np.zeros((N, 0, 0), dt), np.zeros((N, 0), dt), np.zeros((N, 0), dt), np.zeros((N, 0), dt),
                   none, none)

    def take(self, sel: np.ndarray) -> "_Qr":
        return _Qr(*(a[sel] for a in self))


def _reach(count: np.ndarray, steps: int) -> np.ndarray:
    """For each step j below ``steps``, one past the last item whose count
    exceeds j: items from there on take no part in step j, so a loop
    works on the leading items only, the fewer the more the items come in
    descending count."""
    ahead = np.maximum.accumulate(count[::-1])[::-1]  # the largest count from each item on
    return np.searchsorted(-ahead, -np.arange(steps))


def _put(dst: np.ndarray, new: np.ndarray, where: np.ndarray) -> None:
    """``dst`` takes ``new`` where ``where`` (broadcast) is set, in one
    assignment when it is set everywhere and in none when nowhere."""
    if where.all():
        dst[...] = new
    elif where.any():
        np.copyto(dst, new, where=where)


def _padding(W: np.ndarray, m) -> np.ndarray:
    """Set the rows of ``W`` (N, M, cols) past each item's ``m`` to +0 and
    return them as an (N, M) mask.  The Householder loops keep those rows
    +0 in every updated column and -0 in the reflector, so each padded
    product is -0, the exact additive identity :func:`fl_sum` pads with."""
    pad = np.arange(W.shape[1]) >= np.asarray(m)[:, None]
    np.copyto(W, 0.0, where=pad[:, :, None])
    return pad


def _reflect(trail: np.ndarray, v: np.ndarray, coef: np.ndarray, upd: np.ndarray, uf: Precision,
             pad: np.ndarray) -> None:
    """``trail - v coef`` rounded to ``uf``, into the items ``upd`` of
    ``trail`` (k, rows, cols); ``v`` is (k, rows, 1), ``coef`` (k, cols).
    An overflowed coefficient leaves NaN (0 * inf) in the padding rows
    ``pad`` (k, rows), which are reset to the +0 of :func:`_padding`."""
    t = fl(v * coef[:, None, :], uf, inplace=True)
    _put(trail, fl(np.subtract(trail, t, out=t), uf, inplace=True), upd[:, None, None])
    if not np.isfinite(coef).all():
        np.copyto(trail, 0.0, where=pad[:, :, None])


def _householder(W: np.ndarray, m, p, uf: Precision):
    """Householder steps in place on the blocks ``W[i, :m[i], :p[i]]``, the
    column ``W[i, :m[i], -1]`` (e, or Q^T e so far) riding along.  Returns
    R's diagonal, each step's v^T v, and a flag per item, set for a wide
    block or a zero pivot column."""
    N, M, P = W.shape[0], W.shape[1], W.shape[2] - 1
    deficient = p > m
    p = np.where(deficient, 0, p)
    rdiag, vtv = np.zeros((N, P), W.dtype), np.zeros((N, P), W.dtype)
    pad = _padding(W, m)
    for j, k in enumerate(_reach(p, int(p.max(initial=0)))):
        Wk = W[:k]
        live = (j < p[:k]) & ~deficient[:k]
        x = Wk[:, j:, j]
        np.copyto(x, -0.0, where=pad[:k, j:])
        x0 = x[:, 0].copy()
        nx = fl_norm2(x, uf, axis=1)
        deficient[:k] |= live & (nx == 0.0)
        live &= nx != 0.0
        alpha = np.where(x0 >= 0.0, -nx, nx)
        # column j becomes v, so one reduction gives v^T v and v^T trail, and
        # H = I - 2 v v^T / (v^T v) updates the trailing block and e
        Wk[:, j, j] = fl(x0 - alpha, uf)
        v = Wk[:, j:, j, None]
        d = fl_dot(v, Wk[:, j:, j:], uf, axis=1)
        vtv[:k, j], trail = d[:, 0], Wk[:, j:, j + 1 :]
        coef = fl(fl(2.0 * d[:, 1:], uf) / d[:, :1], uf)
        _reflect(trail, v, coef, live & (d[:, 0] != 0.0), uf, pad[:k, j:])
        _put(Wk[:, j, j], x0, ~live)
        rdiag[:k, j] = np.where(live, alpha, x0)
    return rdiag, vtv, deficient


def _extend_qr(qr: _Qr, Anew, ebar, m, p, uf: Precision):
    """Extend the factorizations ``qr`` by new rows and columns; returns
    ``(qr, deficient)`` as :func:`_householder` flags.

    Item i's block now has ``m[i]`` rows and ``p[i]`` columns, the first
    ``qr.m[i]`` and ``qr.p[i]`` those ``qr`` factored, in arrival order, so
    the old columns are zero in the new rows.  ``Anew`` (N, M, max new)
    holds the new columns, zero-padded, and ``ebar`` (N, M) e on the new
    rows.  The stored reflectors are applied to the new columns only, then
    the factorization goes on from the old width; items in descending
    ``qr.p`` run fastest.  The bits are those of factoring each whole block
    from scratch, up to the signs of zeros inside ``W``: a stored reflector
    is zero in the new rows, so each of its sums over a longer line keeps
    the old line's pairwise tree as its left subtree and adds only zeros,
    and a column whose old step overflowed never reaches a new round.
    """
    dt = _dtype(uf)
    m, p = np.asarray(m, np.int64), np.asarray(p, np.int64)
    m_old, p_old = qr.m, qr.p
    wide = p > m
    p = np.where(wide, p_old, p)  # a wide block takes no new column
    P, M_old, P_old = int(p.max(initial=0)), int(m_old.max(initial=0)), int(p_old.max(initial=0))
    pn, Pn = p - p_old, int((p - p_old).max(initial=0))
    An = np.array(np.asarray(Anew)[:, :, :Pn], dtype=dt)
    N, M = An.shape[:2]
    pad = _padding(An, m)
    old_rows = np.arange(M_old) < m_old[:, None]
    W = np.zeros((N, M, P), dt)
    np.copyto(W[:, :M_old, :P_old], qr.W[:, :M_old, :P_old], where=old_rows[:, :, None])
    np.copyto(W[:, :, :P_old], -0.0, where=pad[:, :, None])  # the stored reflectors' padding
    qte = np.array(ebar, dtype=dt)
    np.copyto(qte[:, :M_old], qr.qte[:, :M_old], where=old_rows)
    vtv_old = qr.vtv[:, :P_old]
    upd = (np.arange(P_old) < p_old[:, None]) & (vtv_old != 0.0)
    for j, k in enumerate(_reach(p_old, P_old)):
        v, trail = W[:k, j:, j, None], An[:k, j:]
        d = fl_dot(v, trail, uf, axis=1)
        _reflect(trail, v, fl(fl(2.0 * d, uf) / vtv_old[:k, j, None], uf), upd[:k, j], uf, pad[:k, j:])
    # the new columns' own steps run on their rows from the old width down,
    # the items in descending count of new columns
    order = np.argsort(-pn, kind="stable")
    mb = (m - p_old)[order]
    Mb = int(mb.max(initial=0))
    below = np.minimum(p_old[order, None] + np.arange(Mb), max(M - 1, 0))
    Wb = np.concatenate([An, qte[:, :, None]], axis=2)[order[:, None], below]
    rdiag_b, vtv_b, deficient_b = _householder(Wb, mb, pn[order], uf)
    # back in place: rows from the old width down, then the new columns
    b, r = np.nonzero(np.arange(Mb) < mb[:, None])
    i = order[b]
    An[i, p_old[i] + r], qte[i, p_old[i] + r] = Wb[b, r, :Pn], Wb[b, r, Pn]
    rdiag, vtv = np.zeros((N, P), dt), np.zeros((N, P), dt)
    rdiag[:, :P_old], vtv[:, :P_old] = qr.rdiag[:, :P_old], vtv_old
    b, t = np.nonzero(np.arange(Pn) < pn[order, None])
    i, c = order[b], p_old[order[b]] + t
    W[i, :, c] = An[i, :, t]
    rdiag[i, c], vtv[i, c] = rdiag_b[b, t], vtv_b[b, t]
    deficient = np.empty(N, bool)
    deficient[order] = deficient_b
    return _Qr(W, rdiag, vtv, qte, m, p), deficient | wide


def _back_substitute(qr: _Qr, uf: Precision) -> np.ndarray:
    """The solutions R^-1 (Q^T e)[:p] of ``qr``, (N, max p) in float64, +0
    past each item's width.  ``mbar`` starts at -0 against R's +0 padding,
    so a padded product is -0; a dot with no terms is set to +0."""
    R, p = qr.W, qr.p
    mbar = np.full(qr.rdiag.shape, -0.0, R.dtype)
    for c, k in reversed(list(enumerate(_reach(p, mbar.shape[1])))):
        s = fl_dot(R[:k, c, c + 1 :], mbar[:k, c + 1 :], uf, axis=1)
        s[p[:k] == c + 1] = 0.0
        _put(mbar[:k, c], fl(fl(qr.qte[:k, c] - s, uf) / qr.rdiag[:k, c], uf), c < p[:k])
    mbar[np.arange(mbar.shape[1]) >= p[:, None]] = 0.0
    return mbar.astype(np.float64, copy=False)


def _residual(Abar, ebar, mbar, m, p, uf: Precision) -> np.ndarray:
    """``sbar = A_i mbar_i - e_i`` for a batch, accumulated over the
    columns in their given order, zero past each item's size; ``mbar`` may
    be narrower than ``Abar`` but not than any item."""
    dt = _dtype(uf)
    B, e, mbar = (np.asarray(a, dtype=dt) for a in (Abar, ebar, mbar))
    N, M = e.shape
    y = np.zeros((N, M), dt)
    for c, k in enumerate(_reach(p, mbar.shape[1])):
        t = fl(B[:k, :, c] * mbar[:k, c, None], uf, inplace=True)
        _put(y[:k], fl(np.add(y[:k], t, out=t), uf, inplace=True), (c < p[:k])[:, None])
    sbar = np.where(np.arange(M) < np.asarray(m)[:, None], fl(y - e, uf), 0.0)
    return sbar.astype(np.float64, copy=False)


def solve_column_ls(Abar: np.ndarray, ebar: np.ndarray, uf: Precision):
    """:func:`solve_ls_batch` on one block: returns ``(mbar, sbar)``, or
    raises :class:`RankDeficiencySignal` for a wide block or a zero pivot
    column."""
    A = np.asarray(Abar, dtype=np.float64)
    m, p = A.shape
    mbar, sbar, deficient = solve_ls_batch(A[None], np.asarray(ebar, dtype=np.float64)[None], [m], [p], uf)
    if deficient[0]:
        raise RankDeficiencySignal("wide least-squares block" if p > m else "zero pivot column")
    return mbar[0], sbar[0]


@quiet
def rho_scores(sbar: np.ndarray, C: np.ndarray, uf: Precision) -> np.ndarray:
    """Grote & Huckle's score of every candidate, for a batch of columns, all in ``uf``.

    Item i has the residual ``sbar[i, :m_i]`` on its shadow I_i and the
    candidate columns ``C[i, :m_i, :]`` on I_i; ``sbar`` (N, M) and ``C``
    (N, M, K) are zero-padded.  Returns rho (N, K), the residual norm
    min over mu of ||s + mu c|| if candidate c joins the pattern, as
    sqrt(s.s - (s.c)^2 / c.c) with the radicand clamped at zero.  The zero
    padding can change only the sign of a zero sum, which enters squared.

    A candidate whose c.c rounds to zero scores rho = ||s||, no reduction:
    padding, and in half a candidate about 1e-5 on I_i, whose c.c
    underflows.  Its 0/0 = NaN would make the mean score in
    :func:`augment_patterns` NaN, so no candidate would pass.
    """
    dt = _dtype(uf)
    sbar, C = np.asarray(sbar, dtype=dt), np.asarray(C, dtype=dt)
    ss = fl_dot(sbar, sbar, uf, axis=1)
    dots = fl_dot(sbar[:, :, None], C, uf, axis=1)
    dens = fl_dot(C, C, uf, axis=1)
    q = np.where(dens == 0.0, 0.0, fl(fl(dots * dots, uf) / dens, uf))
    rad = np.maximum(fl(ss[:, None] - q, uf), 0.0)
    return fl(np.sqrt(rad), uf).astype(np.float64, copy=False)


@quiet
def augment_patterns(
    A: SparseMatrix,
    row_sets,
    patterns,
    sbar: np.ndarray,
    beta: int,
    uf: Precision,
    A_t: SparseMatrix | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Grow each pattern J_i by up to ``beta`` acceptable candidates, for a batch of columns.

    The shadows I_i (``row_sets``), the patterns and the result are plain
    batches (see :mod:`spai_ir.sparse`), and ``sbar`` (N, max |I_i|) holds
    each residual, zero-padded.  The candidates are the unvisited columns
    with a nonzero in a row of I_i, the others being zero on I_i.  A
    candidate whose score (:func:`rho_scores`) is at most the mean is
    acceptable; the smallest scores win, ties to the smallest index.  A
    column without an acceptable candidate keeps its pattern.
    """
    N = row_sets[0].size - 1
    if A_t is None:
        A_t = A.transpose()
    n = A.n_cols
    keys = batch_keys(shadows(A_t, row_sets), n)
    visited = batch_keys(patterns, n)
    keys = keys[~np.isin(keys, visited)]
    cands = keys_to_batch(keys, N, n)
    c = np.diff(cands[0])
    C = extract_blocks(A, row_sets, cands)
    rho = rho_scores(sbar[:, : C.shape[1]], C, uf)
    real = np.arange(C.shape[2]) < c[:, None]
    rho_mean = fl(fl_sum(np.where(real, rho, -0.0), uf, axis=1) / c, uf)
    # padding sorts after every real score (NaN sorts last, padded keys
    # exceed every real one) and never passes the mean test; within a
    # column, keys sort as the candidate indices do
    rho = np.where(real, rho, np.nan)
    cand = np.full(rho.shape, np.iinfo(np.int64).max)
    cand[real] = keys
    top = np.lexsort((cand, rho), axis=1)[:, : int(beta)]
    picked = np.take_along_axis(cand, top, axis=1)[np.take_along_axis(rho, top, axis=1) <= rho_mean[:, None]]
    return keys_to_batch(distinct(np.concatenate([visited, picked])), N, n)


def augment_pattern(
    A: SparseMatrix,
    k: int,
    Ik: np.ndarray,
    Jk: np.ndarray,
    sbar: np.ndarray,
    beta: int,
    uf: Precision,
    A_t: SparseMatrix | None = None,
) -> np.ndarray:
    """:func:`augment_patterns` on the one column k, with shadow Ik and
    pattern Jk; ``k`` is kept for the callers' sake and not read."""
    return augment_patterns(A, one_set(Ik), one_set(Jk), np.asarray(sbar)[None], beta, uf, A_t)[1]


@quiet
def build_spai(At: SparseMatrix, params: SpaiParams) -> SpaiPreconditioner:
    """Adaptive approximate inverse M ~= inv(At), all arithmetic in ``params.uf``.

    ``At`` passes :func:`check_matrix`, then is rounded to ``uf``, entries
    that round to zero dropped.  The unfinished columns advance in
    lockstep: each round solves them in one batch, and grows those above
    ``eps`` in one batch; their patterns and shadows travel as ordered
    batches, and their factorizations are carried (see the module
    docstring).  Every column has the bits of its own adaptive loop.  An
    abnormal column (overflow, stagnation, rank deficiency) is frozen at
    its last finite state and flagged; a finite entry that overflows ``uf``
    gives ``overflow``.  Each column of ``P`` holds its last completed
    solve, an exact zero dropped as MATLAB's ``sparse`` does, so ``nnz``
    can be below the size of the pattern it was solved on.
    """
    check_matrix(At)
    n = At.n_rows
    uf = params.uf
    B = At.rounded(uf)
    no_diag = np.setdiff1d(np.arange(n), B.indices[B.indices == owners(B.indptr)])
    if no_diag.size:
        raise ValueError(
            f"zero diagonal at index {no_diag[0]}: identity initial pattern needs a nonzero diagonal"
        )
    B_t = B.transpose()
    E = SparseMatrix.identity(n)
    alpha = params.resolved_alpha(n)

    resnorm = np.full(n, np.inf)
    rounds = np.zeros(n, dtype=np.int64)
    status = np.full(n, COL_OK, dtype=object)
    last = np.full(n, -1)  # the last round each column solved without a fault
    solved = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]  # (round, column, row, value)
    active = np.arange(n)
    # the active columns' patterns, their previous round's shadows and
    # factorizations, all in arrival order
    J = (np.arange(n + 1), np.arange(n), np.zeros(n, np.int64))
    I = (np.zeros(n + 1, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    qr = _Qr.empty(n, uf)
    for step in range(alpha + 1):
        if not active.size:
            break
        # every pattern holds k and B[k, k] != 0, so every shadow holds row k
        I = in_arrival_order(I, shadows(B, J), n)
        m, p = np.diff(I[0]), np.diff(J[0])
        # e is the unit vector on row k: the first round's rows come in
        # ascending order, and no later round adds row k
        ebar = extract_blocks(E, I[:2], (np.arange(active.size + 1), active))[:, :, 0]
        new = extract_blocks(B, I, arrived_since(J, qr.p))
        qr, deficient = _extend_qr(qr, new, ebar if not step else np.zeros_like(ebar), m, p, uf)
        mbar = to_index_order(J, _back_substitute(qr, uf))
        sbar = _residual(extract_blocks(B, I[:2], J[:2]), ebar, mbar, m, p, uf)
        norms = fl_norm2(sbar, uf, axis=1)  # sbar is +0 past m, and no square is -0
        finite = np.isfinite(mbar).all(axis=1) & np.isfinite(sbar).all(axis=1) & np.isfinite(norms)
        status[active[deficient]] = COL_RANK_DEFICIENT
        status[active[~deficient & ~finite]] = COL_OVERFLOW
        ok = np.flatnonzero(~deficient & finite)
        resnorm[active[ok]], last[active[ok]] = norms[ok], step
        ptr, row = take_sets(J[:2], ok)
        value = mbar[ok][np.arange(mbar.shape[1]) < p[ok, None]]
        solved.append((np.full(row.size, step), active[ok][owners(ptr)], row, value))
        if step == alpha:
            break
        grow = ok[norms[ok] > params.eps]
        grown = augment_patterns(B, take_sets(I[:2], grow), take_sets(J[:2], grow), sbar[grow], params.beta, uf, B_t)
        moved = np.diff(grown[0]) > p[grow]
        status[active[grow[~moved]]] = COL_STAGNATED
        # the columns that go on, widest first (see _extend_qr)
        order = np.argsort(-p[grow[moved]], kind="stable")
        go = grow[moved][order]
        J = in_arrival_order(take_sets(J, go), take_sets(grown, np.flatnonzero(moved)[order]), n)
        I, qr = take_sets(I, go), qr.take(go)
        active = active[go]
        rounds[active] += 1

    step, col, row, value = (np.concatenate(field) for field in zip(*solved))
    final = step == last[col]
    return SpaiPreconditioner(
        P=SparseMatrix.from_coo(n, n, row[final], col[final], value[final]),
        col_resnorm=resnorm,
        col_rounds=rounds,
        col_status=status.tolist(),
        params=params,
    )


@quiet
def build_left_preconditioner(A: SparseMatrix, params: SpaiParams) -> SpaiPreconditioner:
    """Left preconditioner P ~= inv(A) via the transposed construction.

    ``A`` passes :func:`check_matrix`; its transpose is column-scaled so
    every column peaks at magnitude 1, which keeps a low-precision build in
    range, M is built for the scaled transpose, and P = M^T D.  The column
    statistics refer to the scaled system.
    """
    check_matrix(A)
    At = A.transpose()
    scaled, d = column_scale(At)
    pre = build_spai(scaled, params)
    return replace(pre, P=pre.P.transpose().scale_columns(d))
