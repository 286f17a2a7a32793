"""Adaptive sparse approximate inverse construction.

Builds an explicit sparse M with M ~= inv(B) column by column: each column
solves a small dense least-squares problem on the current sparsity pattern,
and while the column residual is above the tolerance the pattern is grown
with the candidate indices that most reduce the residual in a univariate
sense.  All arithmetic runs in a configurable emulated precision; single
builds compute natively in float32, as GMRES does, with the same bits.

A column's least-squares block keeps its rows and columns in arrival
order: those of the previous round in their order, then the new ones in
ascending order.  In that order the old columns are zero in the new rows,
so the Householder factorization of the grown block continues the stored
one: each round applies a column's stored reflectors to its new columns
only and goes on from the old width, with the bits of a factorization from
scratch (Grote & Huckle, SISC 1997, update the QR factorization across
rounds the same way).  Only the factorization sees that order: the
solution, the residual, its norm and the scores keep the ascending order
of the indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    """Inputs of the adaptive construction.

    ``eps`` is the per-column residual tolerance, ``alpha`` the maximum
    number of augmentation rounds (``None`` means ceil(n / beta), which lets
    a column fill in as much as it needs), ``beta`` the maximum number of
    indices added per round.  Every column starts from the identity pattern
    ``{k}``, so the input needs a nonzero diagonal.
    """

    eps: float
    alpha: int | None = None
    beta: int = 8
    uf: Precision = SINGLE

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
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
    """The assembled preconditioner plus per-column construction statistics.

    It answers the preconditioner interface (``apply``, ``apply_exact`` and
    ``nnz``) through its sparse ``P``.  ``col_resnorm`` holds the final
    residual 2-norm of each column as measured in the build precision (inf
    for a column that never solved), ``col_rounds`` the number of pattern
    augmentations, and ``col_status`` one of ``ok | overflow | stagnated |
    rank_deficient``.
    """

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

    ``Abar`` is (N, M, P) and ``ebar`` (N, M), zero-padded: item i is the
    block ``Abar[i, :m[i], :p[i]]`` with right-hand side ``ebar[i, :m[i]]``.
    Returns ``(mbar, sbar, deficient)``: mbar (N, P), the residual
    ``sbar = A_i mbar_i - e_i`` (N, M), both zero past each item's size, and
    a flag per item that is set for a wide block or a zero pivot column, in
    which case that item's mbar and sbar mean nothing.

    Every item comes out bit-identical to its block solved alone: each
    reduction takes the item's own length (see :func:`fl_sum`), so whatever
    the updates leave in the padding (0 * inf is NaN) never reaches a real
    entry.  Single computes in float32, where :func:`fl` is the identity;
    half stays on the float64 round trip, faster than float16 in numpy.
    """
    N, M, P = np.shape(Abar)
    qr, deficient = _extend_qr(_Qr.empty(N, uf), Abar, ebar, m, p, uf)
    mbar = _back_substitute(qr, uf)
    sbar = _residual(Abar, ebar, mbar, m, qr.p, uf)
    return np.pad(mbar, ((0, 0), (0, P - mbar.shape[1]))), sbar, deficient


def _dtype(uf: Precision):
    """A build's storage: float32 for single, which computes natively, and
    float64 for the round trip of half and for double."""
    return np.float32 if uf == SINGLE else np.float64


class _Qr(NamedTuple):
    """Householder factorizations of a batch of least-squares blocks, each
    in its block's row and column order.

    Item i has ``m[i]`` rows and ``p[i]`` columns.  Column j of ``W`` holds
    R above the diagonal and the reflector v_j from the diagonal down;
    ``rdiag`` holds R's diagonal, ``vtv`` each v_j^T v_j and ``qte`` Q^T e.
    """

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
    return them as an (N, M) mask.

    The Householder loops keep those rows +0 in every column that a step
    updates and -0 in the reflector: a product of the two is -0, the exact
    additive identity that :func:`fl_sum` pads with, so the reductions take
    the whole column with the bits of summing each item's own rows alone.
    """
    pad = np.arange(W.shape[1]) >= np.asarray(m)[:, None]
    np.copyto(W, 0.0, where=pad[:, :, None])
    return pad


def _reflect(trail: np.ndarray, v: np.ndarray, coef: np.ndarray, upd: np.ndarray, uf: Precision,
             pad: np.ndarray) -> None:
    """``trail - v coef``, every operation rounded to ``uf``, into the items
    ``upd`` of ``trail`` (k, rows, cols); ``v`` is (k, rows, 1) and
    ``coef`` (k, cols).  A coefficient that overflowed leaves NaN (0 * inf)
    in the padding rows ``pad`` (k, rows), which are set back to +0 (see
    :func:`_padding`)."""
    t = fl(v * coef[:, None, :], uf, inplace=True)
    _put(trail, fl(np.subtract(trail, t, out=t), uf, inplace=True), upd[:, None, None])
    if not np.isfinite(coef).all():
        np.copyto(trail, 0.0, where=pad[:, :, None])


def _householder(W: np.ndarray, m, p, uf: Precision):
    """Householder steps in place on the blocks ``W[i, :m[i], :p[i]]`` and
    the column ``W[i, :m[i], -1]`` that rides along (e, or Q^T e so far).

    Returns ``(rdiag, vtv, deficient)``: R's diagonal, each step's v^T v,
    and a flag per item that is set for a wide block or a zero pivot
    column.  Column j keeps its reflector from the diagonal down.
    """
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
    """Extend the factorizations ``qr`` by new rows and columns.

    Item i's block now has ``m[i]`` rows and ``p[i]`` columns: the first
    ``qr.m[i]`` rows and ``qr.p[i]`` columns are those ``qr`` factored,
    the old columns are zero in the new rows, and ``Anew[i]`` holds the
    new columns (``Anew`` is (N, M, max new)), zero-padded, with the rows
    in the block's order; ``ebar`` (N, M) gives e on the new rows.  The
    stored reflectors are applied to the new columns only, then the
    factorization continues from the old width on the rows below it.
    Returns ``(qr, deficient)``, the flag being set for a wide block or a
    zero pivot column.  Items in descending ``qr.p`` apply the stored
    reflectors fastest.

    The result has the bits of factoring each whole block from scratch,
    except for the signs of zeros inside ``W``: every stored reflector is
    zero in the new rows, so each of its sums over a longer line keeps the
    old line's pairwise tree as its left subtree and adds only zeros, and
    an overflow in an old step makes that column's solution non-finite, so
    a column that goes on to a new round never had one.
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
    """The least-squares solutions R^-1 (Q^T e)[:p] of the factorizations
    ``qr``, (N, max p) in float64, zero past each item's width."""
    R, p = qr.W, qr.p
    mbar = np.zeros(qr.rdiag.shape, R.dtype)
    for c, k in reversed(list(enumerate(_reach(p, mbar.shape[1])))):
        s = fl_dot(R[:k, c, c + 1 :], mbar[:k, c + 1 :], uf, axis=1, lengths=np.maximum(p[:k] - c - 1, 0))
        _put(mbar[:k, c], fl(fl(qr.qte[:k, c] - s, uf) / qr.rdiag[:k, c], uf), c < p[:k])
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
    """Least squares min ||Abar m - ebar||_2 by Householder QR, all in ``uf``.

    Returns ``(mbar, sbar)`` where ``sbar = Abar @ mbar - ebar`` is also
    accumulated in ``uf``.  Raises :class:`RankDeficiencySignal` when a
    diagonal of R rounds to zero (or the problem is structurally wide).
    This is :func:`solve_ls_batch` on a batch of one.
    """
    A = np.asarray(Abar, dtype=np.float64)
    m, p = A.shape
    mbar, sbar, deficient = solve_ls_batch(A[None], np.asarray(ebar, dtype=np.float64)[None], [m], [p], uf)
    if deficient[0]:
        raise RankDeficiencySignal("wide least-squares block" if p > m else "zero pivot column")
    return mbar[0], sbar[0]


@quiet
def rho_scores(sbar: np.ndarray, C: np.ndarray, uf: Precision) -> np.ndarray:
    """Grote & Huckle's score of every candidate, for a batch of columns, all in ``uf``.

    Item i has the residual ``sbar[i, :m_i]`` on its shadow I_i, of size
    m_i, and the candidate columns ``C[i, :m_i, :]`` restricted to I_i;
    ``sbar`` is (N, M) and ``C`` (N, M, K), zero past each item's size.
    Returns rho (N, K): the residual norm min over mu of ||sbar_i + mu c||
    predicted if candidate c joins the pattern, computed as
    sqrt(s.s - (s.c)^2 / c.c) with the radicand clamped at zero.  Each
    item's scores are bit-identical to scoring it alone: the sums run over
    the whole padded line, and the zero padding can change only the sign of
    a zero sum, which enters squared or is a sum of squares already.

    A candidate whose c.c rounds to zero is scored as no reduction, rho =
    ||s||: that holds for padding, and in half precision for a candidate
    whose entries on I_i are about 1e-5, as c.c underflows.  Its quotient
    would be 0/0 = NaN, which would make the mean score in
    :func:`augment_patterns` NaN, so that no candidate passes and the column
    stagnates although a good candidate exists.
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

    The shadows I_i (``row_sets``), the patterns and the result are
    batches ``(ptr, idx)`` of sorted index sets (see :mod:`spai_ir.sparse`).
    Column i has the residual ``sbar[i, :|I_i|]`` (``sbar`` is zero-padded
    to (N, max |I_i|)).  Its candidates are the unvisited column indices
    with a nonzero in a row of I_i (any other column is zero on I_i and
    cannot reduce the residual).  A candidate is acceptable when its score
    (see :func:`rho_scores`) is at most the mean score, and the smallest
    scores win, ties broken by smallest column index.  A column without an
    acceptable candidate keeps its pattern.  Each column's scores are
    bit-identical to scoring it alone.
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
    rho_mean = fl(fl_sum(rho, uf, axis=1, lengths=c) / c, uf)
    # padding sorts after every real score (NaN sorts last, padded keys
    # exceed every real one) and never passes the mean test; within a
    # column, keys sort as the candidate indices do
    real = np.arange(C.shape[2]) < c[:, None]
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
    """Grow the pattern Jk of column k by up to ``beta`` acceptable candidates.

    This is :func:`augment_patterns` on a batch of one; Jk comes back
    unchanged when no candidate is acceptable.  ``k`` is kept for the
    callers' sake: a candidate reached only through row k is zero on Ik.
    """
    return augment_patterns(A, one_set(Ik), one_set(Jk), np.asarray(sbar)[None], beta, uf, A_t)[1]


@quiet
def build_spai(At: SparseMatrix, params: SpaiParams) -> SpaiPreconditioner:
    """Adaptive approximate inverse M ~= inv(At), all arithmetic in ``params.uf``.

    The input values are first rounded into the build precision (entries
    that round to zero are dropped).  Columns are independent and advance in
    lockstep: each round solves the least-squares problems of every
    unfinished column in one batch, tests each column, grows the patterns
    of those above the tolerance in one batch (:func:`augment_patterns`),
    and drops the columns that finished.  The unfinished columns' patterns
    and shadows are held as ordered batches ``(ptr, idx, at)`` (see
    :mod:`spai_ir.sparse`), their Householder factorizations in arrival
    order from one round to the next (see the module docstring).  Every
    column is bit-identical to its own adaptive loop that factors each
    round's block from scratch in arrival order.  Abnormal columns
    (overflow, stagnation, rank deficiency) are frozen at their last finite
    state and flagged rather than aborting the whole construction.  Each
    column of ``P`` holds the values of its last completed least-squares
    solve (an augmentation made in the final round is never solved).  Like
    MATLAB's ``sparse``, ``P`` drops a solved value that is exactly zero, so
    its pattern and ``nnz`` count only the stored nonzeros and can be
    smaller than the pattern the column was solved on.  ``At`` passes
    :func:`check_matrix` first; finite entries that overflow ``uf`` give
    columns flagged ``overflow``.
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
        ebar = extract_blocks(E, I, (np.arange(active.size + 1), active))[:, :, 0]
        new = extract_blocks(B, I, arrived_since(J, qr.p), ordered=True)
        qr, deficient = _extend_qr(qr, new, ebar if not step else np.zeros_like(ebar), m, p, uf)
        mbar = to_index_order(J, _back_substitute(qr, uf))
        sbar = _residual(extract_blocks(B, I, J), ebar, mbar, m, p, uf)
        norms = fl_norm2(sbar, uf, axis=1, lengths=m)
        finite = np.isfinite(mbar).all(axis=1) & np.isfinite(sbar).all(axis=1) & np.isfinite(norms)
        status[active[deficient]] = COL_RANK_DEFICIENT
        status[active[~deficient & ~finite]] = COL_OVERFLOW
        ok = np.flatnonzero(~deficient & finite)
        resnorm[active[ok]], last[active[ok]] = norms[ok], step
        ptr, row, _ = take_sets(J, ok)
        value = mbar[ok][np.arange(mbar.shape[1]) < p[ok, None]]
        solved.append((np.full(row.size, step), active[ok][owners(ptr)], row, value))
        if step == alpha:
            break
        grow = ok[norms[ok] > params.eps]
        grown = augment_patterns(B, take_sets(I, grow), take_sets(J, grow), sbar[grow], params.beta, uf, B_t)
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

    The transpose is column-scaled so every column peaks at magnitude 1
    (this keeps low-precision builds inside the representable range), the
    approximate inverse M of the scaled transpose is built, and the scaling
    is folded back: P = M^T D.  Column statistics refer to the scaled system
    actually solved.  ``A`` passes :func:`check_matrix` first.
    """
    check_matrix(A)
    At = A.transpose()
    scaled, d = column_scale(At)
    pre = build_spai(scaled, params)
    return replace(pre, P=pre.P.transpose().scale_columns(d))
