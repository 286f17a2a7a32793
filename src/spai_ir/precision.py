"""Software emulation of floating-point formats.

Values are stored in a native ``float64``; a value "lives in" a lower
format when it is a fixed point of :func:`fl` for that format.  Arithmetic
is emulated operate-then-round: each elementary operation is carried out
exactly in double and the result is rounded to the target format by
:func:`fl`, the one rounding kernel (round-to-nearest, ties-to-even,
subnormals kept, overflow to infinity).

Half and single values may instead be stored in their own numpy dtype
(``Precision.dtype``) and computed on natively, as GMRES does
(:mod:`spai_ir.krylov`), with the same bits: an IEEE ``+ - * / sqrt`` in
float16 or float32 is the exact result rounded once, and so is the float64
operation followed by :func:`fl`, since binary64 carries at least 2t + 2
significant bits for t = 11 and t = 24 and that double rounding is
innocuous (Figueroa, "When is double rounding innocuous?", SIGNUM 1995).
numpy's float16 loops compute in float32 and round to half, innocuous for
the same reason.  :func:`fl_sum` and :func:`fl_dot` keep such arrays in
their dtype.

Overflow to infinity and 0/0 = NaN are intended results, not errors.  The
functions that compute on emulated values are wrapped in :func:`quiet`, the
one numpy error-state policy, so no numpy warning leaves the package.  The
kernel and the primitives ``fl_op``, ``fl_sum``, ``fl_dot`` and ``fl_norm2``
stay bare because they run in the innermost loops; a caller outside the
package wraps them in :func:`quiet`.

The quad-emulated format is realized with compensated double-double
arithmetic built on error-free transformations; it is used for high
accuracy residuals and reference solves, not as a storage format.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Precision",
    "HALF",
    "SINGLE",
    "DOUBLE",
    "QUAD",
    "PRECISIONS",
    "parse_precision",
    "quiet",
    "fl",
    "fl_op",
    "fl_sum",
    "fl_dot",
    "fl_norm2",
    "dd_residual",
    "dd_solve",
    "DenseLu",
    "dense_lu",
    "DomainError",
    "OverflowInFactorizationError",
    "SingularMatrixError",
]


class DomainError(ArithmeticError):
    """Raised for operations outside their real domain (sqrt of a negative)."""


class SingularMatrixError(ArithmeticError):
    """Raised when a factorization or solve meets an exactly singular matrix."""


class OverflowInFactorizationError(ArithmeticError):
    """The factorization produced non-finite entries in the target precision."""


@dataclass(frozen=True)
class Precision:
    """A floating-point format and the constants that describe it.

    ``dtype`` is the numpy storage type used to round into the format, or
    ``None`` for formats that keep the full double word (double itself and
    the quad emulation, whose extra accuracy lives in compensated kernels,
    not in the stored word).
    """

    name: str
    unit_roundoff: float
    max_finite: float
    min_normal: float
    dtype: type | None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Precision({self.name})"


HALF = Precision("half", 2.0**-11, 65504.0, 2.0**-14, np.float16)
SINGLE = Precision("single", 2.0**-24, 3.4028234663852886e38, 2.0**-126, np.float32)
DOUBLE = Precision("double", 2.0**-53, 1.7976931348623157e308, 2.0**-1022, None)
# Effective roundoff of normalized double-double; range limits are those of
# the underlying double words.
QUAD = Precision("quad-emulated", 2.0**-106, 1.7976931348623157e308, 2.0**-1022, None)

PRECISIONS = {"h": HALF, "s": SINGLE, "d": DOUBLE, "q": QUAD}
_BY_NAME = {p.name: p for p in (HALF, SINGLE, DOUBLE, QUAD)}


def parse_precision(flag: str) -> Precision:
    """Resolve a precision from a one-letter flag or full name."""
    key = flag.strip().lower()
    if key in PRECISIONS:
        return PRECISIONS[key]
    if key in _BY_NAME:
        return _BY_NAME[key]
    raise ValueError(f"unknown precision {flag!r}; expected one of h, s, d, q")


def quiet(fn):
    """Run ``fn`` with numpy's overflow, invalid and divide warnings off.

    A fresh ``np.errstate`` is entered per call, so nested calls restore
    the caller's state on every numpy version (one shared instance used as
    a decorator is not re-entrant before numpy 2.0).
    """

    @functools.wraps(fn)
    def quieted(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)

    return quieted


def fl(x, p: Precision, inplace: bool = False):
    """Round to format ``p``: the one rounding kernel of the package.

    A number gives a float; a float64 array gives a new float64 array, or
    with ``inplace`` is rounded in place, without a float64 temporary, and
    returned.  Round-to-nearest-even with subnormals kept; values beyond
    the format's range become infinities.  Double and quad-emulated keep
    the double word: ``x`` comes back as itself.

    Overflow to +-inf is the intended result, but the kernel is bare: numpy
    warns of it unless the caller runs under :func:`quiet`.
    """
    dtype = p.dtype
    if dtype is None:
        return x
    if not isinstance(x, np.ndarray):
        return float(dtype(x))
    if not inplace:
        return x.astype(dtype).astype(np.float64)
    x[...] = x.astype(dtype)
    return x


def fl_op(op: str, a: float, b: float | None = None, p: Precision = DOUBLE) -> float:
    """One emulated scalar operation: exact in double, then rounded to ``p``.

    ``op`` is one of ``add``, ``sub``, ``mul``, ``div``, ``sqrt`` (unary,
    ``b`` ignored).  Division follows IEEE semantics (x/0 gives a signed
    infinity, 0/0 gives NaN); the square root of a negative raises
    :class:`DomainError`.  For the quad emulation the returned double is the
    high word of the compensated result, which for a single operation on
    double operands is just the correctly rounded double.  Bare, like
    :func:`fl`: outside :func:`quiet` overflow and x/0 warn.
    """
    a = float(a)
    if op == "sqrt":
        if a < 0.0:
            raise DomainError("domain")
        return fl(math.sqrt(a), p)
    b = float(b)  # type: ignore[arg-type]
    if op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "mul":
        r = a * b
    elif op == "div":
        r = np.float64(a) / b
    else:
        raise ValueError(f"unknown operation {op!r}")
    return fl(r, p)


def fl_sum(v: np.ndarray, p: Precision, axis: int = 0, lengths=None) -> np.ndarray | float:
    """Sum with every partial addition rounded to ``p``.

    Uses a fixed pairwise reduction order over the zero-padded
    power-of-two-length array, so results are deterministic and independent
    of threading (padding with zeros is exact under round-to-nearest).
    Entries are assumed to be representable in ``p`` already.  Reduces
    along ``axis``; a 1-d input gives a float.

    An array stored in ``p.dtype`` (float16 or float32) is summed in that
    dtype, level by level, and a 1-d one gives a scalar of that dtype.  The
    bits are those of the float64 round trip, because each native IEEE
    addition is the exact sum rounded once (see the module docstring); only
    the float64 copies and the per-level casts are saved.

    ``lengths`` (broadcastable to the result's shape) sums only the first
    ``lengths`` entries of each reduced line, bit for bit as if that line
    were summed alone: entries past the length are taken as +0, and each
    result is read from its own power-of-two subtree, at level
    ceil(log2 length), not from the root of the longer tree (adding the
    root's further +0 terms would turn a -0 sum into +0).  Bare, like
    :func:`fl`: outside :func:`quiet` overflow warns.
    """
    s = np.asarray(v)
    native = s.dtype.type is p.dtype
    if not native:
        s = np.asarray(s, dtype=np.float64)
    if axis:
        s = np.moveaxis(s, axis, 0)
    m, rest = s.shape[0], s.shape[1:]
    levels = None
    if lengths is not None:
        lengths = np.broadcast_to(np.asarray(lengths, dtype=np.int64), rest)
        if lengths.size and (lengths.min() < 0 or lengths.max() > m):
            raise ValueError(f"lengths must lie in [0, {m}]")
        levels = np.frexp(np.maximum(lengths - 1, 0).astype(np.float64))[1]
    if m == 0:
        out = np.zeros(rest, s.dtype)
    else:
        size = 1 << (m - 1).bit_length()
        if levels is not None or size != m:
            padded = np.zeros((size,) + rest, s.dtype)
            if levels is None:
                padded[:m] = s
            else:
                np.copyto(padded[:m], s, where=np.arange(m).reshape((m,) + (1,) * len(rest)) < lengths)
            s = padded
        out = s[0]
        level = 0
        while s.shape[0] > 1:
            s = s[0::2] + s[1::2]
            if not native:
                fl(s, p, inplace=True)
            level += 1
            if levels is not None:
                out = np.where(levels == level, s[0], out)
        out = s[0] if levels is None else out
    if out.ndim:
        return out
    return out[()] if native else float(out)


def fl_dot(u: np.ndarray, v: np.ndarray, p: Precision, axis: int = 0,
           lengths=None) -> np.ndarray | float:
    """Inner product in ``p``: each product rounded, then a rounded pairwise
    sum (see :func:`fl_sum` for ``axis``, ``lengths`` and overflow).

    When both arrays are stored in ``p.dtype`` the products and the sum are
    computed natively in that dtype, with the same bits as the float64
    round trip (see the module docstring), and a 1-d result is a scalar of
    that dtype."""
    u, v = np.asarray(u), np.asarray(v)
    if u.dtype.type is p.dtype and v.dtype.type is p.dtype:
        return fl_sum(u * v, p, axis=axis, lengths=lengths)
    prods = fl(np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64), p, inplace=True)
    return fl_sum(prods, p, axis=axis, lengths=lengths)


def fl_norm2(v: np.ndarray, p: Precision, axis: int = 0, lengths=None) -> np.ndarray | float:
    """Euclidean norm computed in ``p``: a rounded dot, then a rounded square
    root (see :func:`fl_sum` for ``axis``, ``lengths`` and overflow).  An
    array stored in ``p.dtype`` gives a result of that dtype, as in
    :func:`fl_dot`."""
    r = np.sqrt(fl_dot(v, v, p, axis=axis, lengths=lengths))
    return r if r.dtype.type is p.dtype else fl(r, p)


# ---------------------------------------------------------------------------
# double-double kernels (error-free transformations, vectorized)
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a, b):
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _renorm(s, e):
    hi = s + e
    lo = e - (hi - s)
    return hi, lo


def dd_add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    e = e + (al + bl)
    return _renorm(s, e)


def dd_mul(ah, al, bh, bl):
    p, e = _two_prod(ah, bh)
    e = e + (ah * bl + al * bh)
    return _renorm(p, e)


def dd_div(ah, al, bh, bl):
    q1 = ah / bh
    ph, pl = dd_mul(q1, np.zeros_like(q1) if isinstance(q1, np.ndarray) else 0.0, bh, bl)
    rh, rl = dd_add(ah, al, -ph, -pl)
    q2 = (rh + rl) / bh
    return _renorm(q1, q2)


def _dd_residual_parts(A, xh, xl, b):
    """Residual b - A x accumulated in double-double; x may itself be a dd pair.

    ``A`` is either a dense ndarray or an object exposing ``row_slots()``
    (see :class:`spai_ir.sparse.SparseMatrix`): a list of
    ``(rows, cols, vals)`` triplets where each row index appears at most
    once per slot and a row's slots are ordered by ascending column.
    """
    b = np.asarray(b, dtype=np.float64)
    sh = np.zeros_like(b)
    sl = np.zeros_like(b)
    if hasattr(A, "row_slots"):
        for rows, cols, vals in A.row_slots():
            ph, pl = dd_mul(vals, np.zeros_like(vals), xh[cols], xl[cols])
            th, tl = dd_add(sh[rows], sl[rows], ph, pl)
            sh[rows] = th
            sl[rows] = tl
    else:
        Ad = np.asarray(A, dtype=np.float64)
        for j in range(Ad.shape[1]):
            ph, pl = dd_mul(Ad[:, j], 0.0, xh[j], xl[j])
            sh, sl = dd_add(sh, sl, ph, pl)
    return dd_add(b, np.zeros_like(b), -sh, -sl)


@quiet
def dd_residual(A, x, b) -> np.ndarray:
    """b - A x with all accumulation in double-double, rounded to double.

    ``x`` may be a plain double vector or a ``(hi, lo)`` double-double pair
    (as returned by :func:`dd_solve`), in which case the residual reflects
    the full compensated accuracy of the pair.
    """
    if isinstance(x, tuple):
        xh = np.asarray(x[0], dtype=np.float64)
        xl = np.asarray(x[1], dtype=np.float64)
    else:
        xh = np.asarray(x, dtype=np.float64)
        xl = np.zeros_like(xh)
    rh, rl = _dd_residual_parts(A, xh, xl, np.asarray(b, dtype=np.float64))
    return rh


# ---------------------------------------------------------------------------
# dense LU in emulated precision
# ---------------------------------------------------------------------------


@dataclass
class DenseLu:
    """Partial-pivoting factors of (a row permutation of) a dense matrix.

    ``lu`` packs both factors in one array: U on and above the diagonal,
    the multipliers of the unit lower factor L below it.  Row ``k`` of the
    factored matrix is row ``perm[k]`` of the input.
    """

    lu: np.ndarray
    perm: np.ndarray

    @property
    def nnz_lu(self) -> int:
        """Nonzero entries of L and U, the unit diagonal of L counted once
        with the diagonal of U."""
        return int(np.count_nonzero(self.lu))

    @quiet
    def substitute(self, b: np.ndarray, p: Precision) -> np.ndarray:
        """Solve L U x = b for ``b`` already in pivot order by forward and
        back substitution, every operation rounded to ``p``."""
        lu = self.lu
        x = fl(np.array(b, dtype=np.float64), p, inplace=True)
        for k in range(lu.shape[0] - 1):
            x[k + 1 :] = fl(x[k + 1 :] - fl(lu[k + 1 :, k] * x[k], p), p)
        for k in range(lu.shape[0] - 1, -1, -1):
            x[k] = fl(x[k] / lu[k, k], p)
            x[:k] = fl(x[:k] - fl(lu[:k, k] * x[k], p), p)
        return x


def _reach(v: np.ndarray) -> int:
    """One past the last nonzero entry of ``v``; 0 if there is none."""
    nz = np.flatnonzero(v)
    return int(nz[-1]) + 1 if nz.size else 0


@quiet
def dense_lu(A, uf: Precision) -> DenseLu:
    """LU with partial pivoting, every operation rounded to ``uf``.

    Factors a copy of the dense array ``A``.  Raises
    :class:`SingularMatrixError` on an exactly zero pivot and
    :class:`OverflowInFactorizationError` when the factors contain
    non-finite entries (the caller may equilibrate and retry).

    Step k subtracts its rank-1 update only from the rows up to its last
    nonzero multiplier and the columns up to the last nonzero entry of its
    pivot row; every entry skipped would get a - fl(+-0 * u) = a.  Partial
    pivoting keeps the factors inside the band, so the cost follows the
    bandwidth of the ordered matrix, not n**3.  The factors are those of
    the full-block update bit for bit: a -0 in the rounded input makes every
    step take the full block (-0 - -0 = +0), and so does an inf or NaN in a
    step's multipliers or pivot row (0 * inf = NaN).
    """
    M = fl(np.array(A, dtype=np.float64), uf, inplace=True)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    perm = np.arange(n)
    signed_zero = bool(np.any(np.signbit(M) & (M == 0.0)))
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        if M[p, k] == 0.0:
            raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {k}")
        if p != k:
            M[[k, p]] = M[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        col = M[k + 1 :, k]
        col /= M[k, k]
        fl(col, uf, inplace=True)
        row = M[k, k + 1 :]
        if signed_zero or not (np.isfinite(col).all() and np.isfinite(row).all()):
            re, ce = col.shape[0], row.shape[0]
        else:
            re, ce = _reach(col), _reach(row)
        block = M[k + 1 : k + 1 + re, k + 1 : k + 1 + ce]
        block -= fl(np.outer(col[:re], row[:ce]), uf, inplace=True)
        fl(block, uf, inplace=True)
    if M[n - 1, n - 1] == 0.0:
        raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {n - 1}")
    if not np.all(np.isfinite(M)):
        raise OverflowInFactorizationError(f"overflow in {uf.name}")
    return DenseLu(lu=M, perm=perm)


def _dd_lu_solve(A: np.ndarray, b: np.ndarray):
    """Dense LU factorization and solve carried entirely in double-double.

    Cubic in n with heavy per-element cost: an independent oracle for
    :func:`dd_solve` at small sizes.
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
def dd_solve(A, b):
    """Reference solution of A x = b accurate to double-double level.

    Factors a dense copy once in double with :func:`dense_lu`, whose cost
    follows the bandwidth of ``A`` as ordered, and then refines with
    double-double residuals until the residual stops improving; the limiting
    forward error is of order ``unit_roundoff(QUAD) * cond(A)``.  Returns
    ``(x_hi, x_lo)`` as a normalized double-double pair.
    """
    b = np.asarray(b, dtype=np.float64)
    dense = A.to_dense() if hasattr(A, "to_dense") else np.asarray(A, dtype=np.float64)
    if dense.shape[0] != dense.shape[1] or dense.shape[0] != b.shape[0]:
        raise ValueError("dd_solve needs a square system with matching right-hand side")
    factors = dense_lu(dense, DOUBLE)
    resid_target = A if hasattr(A, "row_slots") else dense
    xh = factors.substitute(b[factors.perm], DOUBLE)
    xl = np.zeros_like(xh)
    best = math.inf
    for _ in range(8):
        rh, rl = _dd_residual_parts(resid_target, xh, xl, b)
        rnorm = float(np.max(np.abs(rh)))
        if not math.isfinite(rnorm):
            raise SingularMatrixError("singular")
        if rnorm >= best:
            break
        best = rnorm
        d = factors.substitute(rh[factors.perm], DOUBLE)
        xh, xl = dd_add(xh, xl, d, np.zeros_like(d))
    return xh, xl
