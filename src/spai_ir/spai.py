"""Adaptive sparse approximate inverse construction.

Builds an explicit sparse M with M ~= inv(B) column by column: each column
solves a small dense least-squares problem on the current sparsity pattern,
and while the column residual is above the tolerance the pattern is grown
with the candidate indices that most reduce the residual in a univariate
sense.  All arithmetic runs in a configurable emulated precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# fl_op stays bound here although unused: perfbench/tracer.py wraps spai.fl_op
from .precision import QUAD, SINGLE, Precision, fl, fl_dot, fl_norm2, fl_op, fl_sum, quiet  # noqa: F401
from .sparse import (  # noqa: F401 - shadow and extract_submatrix are bound here for perfbench/tracer.py
    SparseMatrix,
    column_scale,
    extract_blocks,
    extract_submatrix,
    index_set,
    shadow,
    shadows,
)

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

    ``col_resnorm`` holds the final residual 2-norm of each column as
    measured in the build precision, ``col_rounds`` the number of pattern
    augmentations, ``satisfied`` whether the column met the tolerance, and
    ``col_status`` one of ``ok | overflow | stagnated | rank_deficient``.
    """

    P: SparseMatrix
    col_resnorm: np.ndarray
    col_rounds: np.ndarray
    satisfied: np.ndarray
    col_status: list[str]
    params: SpaiParams

    @property
    def nnz(self) -> int:
        return self.P.nnz

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
    entry.
    """
    B = np.asarray(Abar, dtype=np.float64)
    e = np.asarray(ebar, dtype=np.float64)
    m = np.asarray(m, dtype=np.int64)
    deficient = np.asarray(p, dtype=np.int64) > m
    p = np.where(deficient, 0, p)
    N, M, P = B.shape
    steps = int(p.max()) if N else 0
    # e rides along as column P, so each reflection updates it exactly as it
    # updates the trailing block
    W = np.concatenate([B, e[:, :, None]], axis=2)
    row_ok = np.arange(M) < m[:, None]
    for j in range(steps):
        live = (j < p) & ~deficient
        rows = np.maximum(m - j, 0)
        x = W[:, j:, j]
        nx = fl_norm2(x, uf, axis=1, lengths=rows)
        deficient |= live & (nx == 0.0)
        live &= nx != 0.0
        alpha = np.where(x[:, 0] >= 0.0, -nx, nx)
        v = x.copy()
        v[:, 0] = fl(x[:, 0] - alpha, uf)
        vtv = fl_dot(v, v, uf, axis=1, lengths=rows)
        # apply H = I - 2 v v^T / (v^T v) to the trailing block and to e
        trail = W[:, j:, j + 1 :]
        s = fl_dot(v[:, :, None], trail, uf, axis=1, lengths=rows[:, None])
        coef = fl(fl(2.0 * s, uf) / vtv[:, None], uf)
        new = fl(trail - fl(v[:, :, None] * coef[:, None, :], uf), uf)
        upd = live & (vtv != 0.0)
        W[:, j:, j + 1 :] = np.where(upd[:, None, None], new, trail)
        W[live, j, j] = alpha[live]
        W[live, j + 1 :, j] = 0.0
    mbar = np.zeros((N, P))
    for c in range(steps - 1, -1, -1):
        s = fl_dot(W[:, c, c + 1 : P], mbar[:, c + 1 :], uf, axis=1, lengths=np.maximum(p - c - 1, 0))
        mbar[:, c] = np.where(c < p, fl(fl(W[:, c, P] - s, uf) / W[:, c, c], uf), 0.0)
    # residual on the original block, fixed ascending-column accumulation
    y = np.zeros((N, M))
    for c in range(steps):
        t = fl(y + fl(B[:, :, c] * mbar[:, c, None], uf), uf)
        y = np.where((c < p)[:, None], t, y)
    sbar = np.where(row_ok, fl(y - e, uf), 0.0)
    return mbar, sbar, deficient


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
def rho_scores(sbar: np.ndarray, C: np.ndarray, m, uf: Precision) -> np.ndarray:
    """Grote & Huckle's score of every candidate, for a batch of columns, all in ``uf``.

    Item i has the residual ``sbar[i, :m[i]]`` on its shadow I_i and the
    candidate columns ``C[i, :m[i], :]`` restricted to I_i; ``sbar`` is
    (N, M) and ``C`` (N, M, K), zero past each item's size.  Returns rho
    (N, K): the residual norm min over mu of ||sbar_i + mu c|| predicted if
    candidate c joins the pattern, computed as sqrt(s.s - (s.c)^2 / c.c)
    with the radicand clamped at zero.  Each item's scores are
    bit-identical to scoring it alone.

    A candidate that is zero on I_i scores NaN (0/0), and so does padding.
    In half precision so does a candidate whose entries on I_i are about
    1e-5, as (s.c)^2 and c.c underflow to zero.  The NaN makes the mean
    score in :func:`augment_patterns` NaN, no candidate passes, and the
    column is flagged stagnated: for B = [[1, 1e-5, .5], [.5, 1e-5, 0],
    [0, 1, 1]], J = {0} and sbar = (.25, -.5) on I = {0, 1}, candidate 2
    scores 0.5, yet the pattern does not grow.
    """
    m = np.asarray(m, dtype=np.int64)
    ss = fl_dot(sbar, sbar, uf, axis=1, lengths=m)
    dots = fl_dot(sbar[:, :, None], C, uf, axis=1, lengths=m[:, None])
    dens = fl_dot(C, C, uf, axis=1, lengths=m[:, None])
    q = fl(fl(dots * dots, uf) / dens, uf)
    rad = np.maximum(fl(ss[:, None] - q, uf), 0.0)
    return fl(np.sqrt(rad), uf)


@quiet
def augment_patterns(
    A: SparseMatrix,
    row_sets: list[np.ndarray],
    patterns: list[np.ndarray],
    sbar: np.ndarray,
    beta: int,
    uf: Precision,
    A_t: SparseMatrix | None = None,
) -> list[np.ndarray]:
    """Grow each pattern J_i by up to ``beta`` acceptable candidates, for a batch of columns.

    Column i has the shadow I_i = ``row_sets[i]`` and the residual
    ``sbar[i, :|I_i|]`` (``sbar`` is zero-padded to (N, max |I_i|)).  Its
    candidates are the unvisited column indices with a nonzero in a row of
    I_i (any other column is zero on I_i and cannot reduce the residual).
    A candidate is acceptable when its score (see :func:`rho_scores`) is at
    most the mean score, and the smallest scores win, ties broken by
    smallest column index.  A column without an acceptable candidate keeps
    its pattern.  Each column's scores are bit-identical to scoring it alone.
    """
    if not row_sets:
        return []
    if A_t is None:
        A_t = A.transpose()
    n = A.n_cols
    N = len(row_sets)
    reach = shadows(A_t, row_sets)
    owner = np.repeat(np.arange(N), [r.size for r in reach])
    reach = np.concatenate(reach)
    visited = np.concatenate([J + i * n for i, J in enumerate(patterns)])
    unvisited = ~np.isin(owner * n + reach, visited)
    c = np.bincount(owner[unvisited], minlength=N)
    cands = np.split(reach[unvisited], np.cumsum(c)[:-1])
    C = extract_blocks(A, row_sets, cands)
    m = np.array([I.size for I in row_sets], dtype=np.int64)
    rho = rho_scores(sbar[:, : C.shape[1]], C, m, uf)
    rho_mean = fl(fl_sum(rho, uf, axis=1, lengths=c) / c, uf)
    # padding sorts after every real score (NaN sorts last, padded indices
    # exceed every real one) and never passes the mean test
    real = np.arange(C.shape[2]) < c[:, None]
    rho = np.where(real, rho, np.nan)
    cand = np.full(rho.shape, n, dtype=np.int64)
    cand[real] = reach[unvisited]
    top = np.lexsort((cand, rho), axis=1)[:, : int(beta)]
    chosen = np.take_along_axis(rho, top, axis=1) <= rho_mean[:, None]
    picked = np.take_along_axis(cand, top, axis=1)
    return [
        index_set(np.concatenate([J, picked[i][chosen[i]]])) if chosen[i].any() else J
        for i, J in enumerate(patterns)
    ]


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
    return augment_patterns(A, [Ik], [Jk], np.asarray(sbar, dtype=np.float64)[None], beta, uf, A_t)[0]


@quiet
def build_spai(At: SparseMatrix, params: SpaiParams) -> SpaiPreconditioner:
    """Adaptive approximate inverse M ~= inv(At), all arithmetic in ``params.uf``.

    The input values are first rounded into the build precision (entries
    that round to zero are dropped).  Columns are independent and advance in
    lockstep: each round solves the least-squares problems of every
    unfinished column in one batch (:func:`solve_ls_batch`), tests each
    column, grows the patterns of those above the tolerance in one batch
    (:func:`augment_patterns`), and drops the columns that finished.  Every
    column is bit-identical to its own adaptive loop.  Abnormal columns
    (overflow, stagnation, rank deficiency) are frozen at their last finite
    state and flagged rather than aborting the whole construction.  Each
    column of ``P`` holds the values of its last completed least-squares
    solve (an augmentation made in the final round is never solved).  Like
    MATLAB's ``sparse``, ``P`` drops a solved value that is exactly zero, so
    its pattern and ``nnz`` count only the stored nonzeros and can be
    smaller than the pattern the column was solved on.
    """
    if At.n_rows != At.n_cols:
        raise ValueError("square matrix required")
    n = At.n_rows
    uf = params.uf
    B = At.rounded(uf)
    cols = np.repeat(np.arange(n), np.diff(B.indptr))
    no_diag = np.setdiff1d(np.arange(n), B.indices[B.indices == cols])
    if no_diag.size:
        raise ValueError(
            f"zero diagonal at index {no_diag[0]}: identity initial pattern needs a nonzero diagonal"
        )
    patterns = [index_set([k]) for k in range(n)]
    B_t = B.transpose()
    E = SparseMatrix.identity(n)
    alpha = params.resolved_alpha(n)

    solved = [np.empty(0, dtype=np.int64)] * n
    values = [np.empty(0)] * n
    resnorm = np.full(n, np.inf)
    rounds = np.zeros(n, dtype=np.int64)
    satisfied = np.zeros(n, dtype=bool)
    status = np.full(n, COL_OK, dtype=object)
    active = np.arange(n)
    for step in range(alpha + 1):
        if not active.size:
            break
        # every pattern holds k and B[k, k] != 0, so every shadow holds row k
        I_sets = shadows(B, [patterns[k] for k in active])
        m = np.array([I.size for I in I_sets], dtype=np.int64)
        J_sets = [patterns[k] for k in active]
        p = np.array([J.size for J in J_sets], dtype=np.int64)
        ebar = extract_blocks(E, I_sets, active[:, None])[:, :, 0]
        mbar, sbar, deficient = solve_ls_batch(extract_blocks(B, I_sets, J_sets), ebar, m, p, uf)
        norms = fl_norm2(sbar, uf, axis=1, lengths=m)
        finite = np.isfinite(mbar).all(axis=1) & np.isfinite(sbar).all(axis=1) & np.isfinite(norms)
        status[active[deficient]] = COL_RANK_DEFICIENT
        status[active[~deficient & ~finite]] = COL_OVERFLOW
        ok = np.flatnonzero(~deficient & finite)
        for i in ok:
            k = active[i]
            solved[k], values[k], resnorm[k] = J_sets[i], mbar[i, : p[i]].copy(), norms[i]
        met = norms[ok] <= params.eps
        satisfied[active[ok[met]]] = True
        if step == alpha:
            break
        grow = ok[~met]
        grown = augment_patterns(B, [I_sets[i] for i in grow], [J_sets[i] for i in grow],
                                 sbar[grow], params.beta, uf, A_t=B_t)
        moved = np.array([G.size > J_sets[i].size for G, i in zip(grown, grow)], dtype=bool)
        status[active[grow[~moved]]] = COL_STAGNATED
        for G, i in zip(grown, grow):
            patterns[active[i]] = G
        active = active[grow[moved]]
        rounds[active] += 1

    M = SparseMatrix.from_coo(
        n,
        n,
        np.concatenate(solved) if n else np.empty(0, np.int64),
        np.repeat(np.arange(n, dtype=np.int64), [J.size for J in solved]),
        np.concatenate(values) if n else np.empty(0),
    )
    return SpaiPreconditioner(
        P=M,
        col_resnorm=resnorm,
        col_rounds=rounds,
        satisfied=satisfied,
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
    actually solved.
    """
    if A.n_rows != A.n_cols:
        raise ValueError("square matrix required")
    At = A.transpose()
    scaled, d = column_scale(At)
    pre = build_spai(scaled, params)
    return replace(pre, P=pre.P.transpose().scale_columns(d))
