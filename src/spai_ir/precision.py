"""Software emulation of floating-point formats.

A value lives in a format when it is a fixed point of :func:`fl` for that
format, the one rounding kernel: round to nearest, ties to even,
subnormals kept, overflow to infinity.  Arithmetic is emulated
operate-then-round: each elementary operation is carried out in double
and rounded once by :func:`fl`.  Sums follow one fixed pairwise tree over
the terms padded with -0 to a power-of-two length; -0 is the exact
additive identity, so the padding changes no partial sum, and a batch
whose lines differ in size, padded with -0 too, gets each line's own
sum.  The tree runs level by level in one buffer (:func:`_levels`,
:func:`_reduce`), made per call by :func:`fl_sum` and kept only by a
:class:`PairwisePlan` that its caller owns.

Half and single values may instead be stored in their own numpy dtype
(``Precision.dtype``) and computed on natively, with the same bits: an
IEEE ``+ - * / sqrt`` in float16 or float32 is the exact result rounded
once, and so is the double result rounded by :func:`fl`, since binary64
carries at least 2t + 2 significand bits for t = 11 and t = 24, which
makes that double rounding innocuous (Figueroa, "When is double rounding
innocuous?", SIGNUM 1995).  numpy's float16 loops compute in float32 and
round to half, innocuous for the same reason.  A product whose operands
differ in dtype is formed in float64 and cast once to the result's
dtype, which is the emulation's fl(a * b): the double product is exact
for a half times a single (11 + 24 bits), and otherwise it is the one
rounding to double that the emulation asks for.  Such a product names
``dtype=np.float64``, since numpy 1.x casts a 0-d operand by its value.

Overflow to infinity and 0/0 = NaN are intended results, not errors.  The
functions that compute on emulated values run under :func:`quiet`, the
one numpy error-state policy.  :func:`fl`, :func:`fl_op`, :func:`fl_sum`,
:func:`fl_dot` and :func:`fl_norm2` stay bare, since they run in the
innermost loops; a caller outside the package wraps them in :func:`quiet`.

The emulated LU keeps its factors in one band store, LAPACK's ``dgbtrf``
band matrix (:class:`DenseLu`): float32 for half and single, whose values
it holds exactly, float64 for double.  The elimination (:func:`dense_lu`)
and the substitution (:meth:`DenseLu.substitute`) do only the work that
can change a bit, so they cost what the bandwidth of the ordered matrix
implies, and no n x n array is made.  The LU contract: a rounded -0 in
the input is the +0 it stands for; an entry outside the structural
envelope is a zero that no step touches; an inf or NaN anywhere in the
store is an overflow, raised ahead of a zero pivot.  Within it, factors
and solutions are those of the loops over whole columns of a dense
array, up to the sign of a zero.

The quad-emulated format is compensated double-double arithmetic built on
error-free transformations, used for residuals and reference solves
(:func:`dd_residual`, :func:`dd_solve`), not as a storage format.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    "require_square",
    "require_vector",
    "check_matrix",
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


def require_square(shape: tuple[int, int]) -> None:
    """Raise ``ValueError`` unless ``shape`` is that of a square matrix."""
    if shape[0] != shape[1]:
        raise ValueError(f"square matrix required, got {shape[0]}x{shape[1]}")


def require_vector(v, n: int, shape: tuple[int, int], name: str = "x") -> np.ndarray:
    """``v`` as an array; ``ValueError`` unless it is 1-d with ``n``
    entries, as the vector ``name`` of a system with a matrix of ``shape``."""
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError(f"dimension mismatch: {name} of shape {v.shape} for a {shape} matrix, expected ({n},)")
    return v


def check_matrix(A, b=None) -> None:
    """The input gate of every entry point that takes a system, raising in
    this order: ``ValueError`` for a non-square sparse ``A`` or one with a
    NaN or inf, :class:`SingularMatrixError` for a row or column of ``A``
    with no stored nonzero, and ``ValueError`` for a given ``b`` that is
    not a vector of A's order or holds a NaN or inf."""
    require_square(A.shape)
    if not np.all(np.isfinite(A.data)):
        raise ValueError("matrix A has a NaN or infinite entry")
    nonzero = A.data != 0.0
    per_row = np.bincount(A.indices[nonzero], minlength=A.shape[0])
    per_col = np.diff(np.concatenate(([0], np.cumsum(nonzero)))[A.indptr])
    for kind, counts in (("row", per_row), ("column", per_col)):
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise SingularMatrixError(f"matrix A is singular: {kind} {empty[0]} has no nonzero entry")
    if b is not None and not np.all(np.isfinite(require_vector(b, A.shape[0], A.shape, "b"))):
        raise ValueError("right-hand side b has a NaN or infinite entry")


@dataclass(frozen=True)
class Precision:
    """A floating-point format and its constants.  ``dtype`` is the numpy
    type that stores it, or ``None`` where values keep the double word
    (double, and quad-emulated, whose accuracy lives in its kernels)."""

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
    """Run ``fn`` with numpy's overflow, invalid and divide warnings off,
    through a fresh ``np.errstate`` per call: one shared instance used as
    a decorator is not re-entrant before numpy 2.0."""

    @functools.wraps(fn)
    def quieted(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)

    return quieted


def fl(x, p: Precision, inplace: bool = False):
    """Round ``x`` to format ``p``: the one rounding kernel.

    A number gives a float, a float64 array a new float64 array, or with
    ``inplace`` itself, rounded in place.  ``x`` comes back unchanged for
    double and quad-emulated, and when it is stored in ``p.dtype``.  Bare:
    outside :func:`quiet` numpy warns of an overflow.
    """
    dtype = p.dtype
    if dtype is None:
        return x
    if not isinstance(x, np.ndarray):
        return float(dtype(x))
    if x.dtype.type is dtype:
        return x
    if not inplace:
        return x.astype(dtype).astype(np.float64)
    x[...] = x.astype(dtype)
    return x


def fl_op(op: str, a: float, b: float | None = None, p: Precision = DOUBLE) -> float:
    """One emulated scalar operation, ``op`` one of ``add``, ``sub``,
    ``mul``, ``div`` and ``sqrt`` (``b`` ignored): in double, then rounded
    to ``p``; quad gives the correctly rounded double.  x/0 is a signed
    infinity and 0/0 NaN; the square root of a negative raises
    :class:`DomainError`.  Bare, like :func:`fl`."""
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


def _padded_length(m: int) -> int:
    return 1 << max(m - 1, 0).bit_length()


def _levels(buf: np.ndarray, m: int) -> list:
    """The pairwise tree over the first ``m`` rows of ``buf`` as ``(a, b,
    out)`` views, one per level.

    ``buf`` has ``2 * size - 1`` rows, ``size`` the padded length: the
    terms, then each level's sums, ``a + b`` of the even and odd rows of
    its input, written right after it, so no output overlaps its operands
    and the total ends in the last row.  A level adds only the pairs that
    hold a term, since two padding rows sum to -0; the row after its last
    sum, which the next level reads, is set to -0 here.
    """
    views = []
    for a, b, out, pad in _level_slices(m):
        if pad is not None:
            buf[pad] = -0.0
        views.append((buf[a], buf[b], buf[out]))
    return views


@functools.lru_cache(maxsize=None)
def _level_slices(m: int) -> tuple:
    """The slices of :func:`_levels` for ``m`` terms, and each level's row
    to set to -0 (or None)."""
    n, lo, plan = _padded_length(m), 0, []
    while n > 1:
        h = (m + 1) // 2  # pairs that hold a term
        pad = lo + n + h if h % 2 and h < n // 2 else None
        plan.append((slice(lo, lo + 2 * h, 2), slice(lo + 1, lo + 2 * h, 2), slice(lo + n, lo + n + h), pad))
        lo, n, m = lo + n, n // 2, h
    return tuple(plan)


def _reduce(levels, p: Precision | None = None) -> None:
    """Run the one pairwise tree over the views of :func:`_levels`, level
    by level, rounding each level's sums to ``p`` when given."""
    for a, b, out in levels:
        np.add(a, b, out)
        if p is not None:
            out[...] = out.astype(p.dtype)  # fl(out, p, inplace=True), without the call


def fl_sum(v: np.ndarray, p: Precision, axis: int = 0) -> np.ndarray | float:
    """Sum of the values of ``p`` in ``v`` along the whole ``axis``, each
    addition of the pairwise tree rounded to ``p``; a sum of no terms is
    +0.  A 1-d input gives a float, or a scalar of ``p.dtype`` when stored
    in it; an array stored in ``p.dtype`` is summed natively.  The buffer
    is made per call, and nothing outlives it.  Bare, like :func:`fl`.
    """
    s = np.asarray(v)
    native = s.dtype.type is p.dtype
    if axis:
        s = s.swapaxes(0, 1) if axis == 1 else np.moveaxis(s, axis, 0)
    m, rest = s.shape[0], s.shape[1:]
    buf = np.empty((2 * _padded_length(m) - 1,) + rest, s.dtype if native else np.float64)
    buf[:m] = s
    buf[m : m + 1] = -0.0 if m else 0.0  # the sum of no terms is +0
    _reduce(_levels(buf, m), None if native or p.dtype is None else p)
    out = buf[-1]
    if out.ndim:
        return out.copy()  # not a view that keeps the whole buffer alive
    return out[()] if native else float(out)


# the ufuncs of the per-step loops, bound once
_add, _multiply, _subtract, _divide = np.add, np.multiply, np.subtract, np.divide


class PairwisePlan:
    """:func:`fl_dot` and :func:`fl_norm2` of at most ``m`` terms stored
    in ``p``'s own dtype (float64 for double), bit for bit, as scalars of
    that dtype, through one tree built once, whose buffer lives as long as
    the plan that its caller owns.

    A call writes its k terms into the buffer's head, -0 past them (+0 for
    no terms), and runs the levels; no level writes the head or the -0
    padding, so no call reaches the next, and none allocates an array.
    The first P(k) leaves, P(k) the padded length of k, form a complete
    subtree and the rest sum -0, so the total is fl_dot's over k terms.
    A double plan runs numpy levels down to 16 sums (at most 16 terms go
    straight there) and adds those as Python floats in one pairwise
    expression, the same binary64 additions without four numpy calls;
    half and single would need a rounding per addition.  Bare, like
    :func:`fl`.
    """

    def __init__(self, m: int, p: Precision):
        double = p.dtype is None
        size = max(_padded_length(m), 16 if double else 1)
        self._buf = np.full(2 * size - 1, -0.0, p.dtype or np.float64)
        if not m:
            self._buf[0] = 0.0  # the sum of no terms is +0
        self._head = self._buf[:m]
        levels, self._tail = _levels(self._buf, m), None
        # mgs_step's h as a 0-d array: the tree's last row, or where a double plan writes its tail's sum
        self._h = self._buf[-1, ...]
        if double:  # the last four levels, 16 sums down to 1, run in Python floats
            levels, self._tail, self._h = levels[:-4], self._buf[2 * size - 32 : 2 * size - 16], np.empty(())
        self._levels = levels

    def dot(self, u: np.ndarray, v: np.ndarray):
        k, head = len(u), self._head
        np.multiply(u, v, out=head[:k])
        head[k:] = -0.0 if k else 0.0
        _reduce(self._levels)
        if self._tail is None:
            return self._buf[-1]
        a = self._tail.tolist()
        return np.float64((((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))
                          + (((a[8] + a[9]) + (a[10] + a[11])) + ((a[12] + a[13]) + (a[14] + a[15]))))

    def norm2(self, v: np.ndarray):
        return np.sqrt(self.dot(v, v))

    def mgs_step(self, v: np.ndarray, w: np.ndarray, t: np.ndarray):
        """One modified Gram-Schmidt step of GMRES: ``h = fl_dot(v, w)``,
        then ``w -= fl(h v)`` in place through the scratch vector ``t``;
        returns ``h``, a Python float in double, else a scalar of the
        plan's dtype.  The bits are those of :meth:`dot` and the update.
        The tree is written out again here, not reached through
        :meth:`dot`, and ``h`` is a kept 0-d array: GMRES calls this per
        basis vector per iteration, where each frame hop, scalar
        conversion and keyword ``out`` costs a measurable share.
        """
        _multiply(v, w, self._head)
        for a, b, out in self._levels:
            _add(a, b, out)
        if self._tail is None:
            h = self._buf[-1]
        else:
            a = self._tail.tolist()
            h = self._h[()] = ((((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))
                               + (((a[8] + a[9]) + (a[10] + a[11])) + ((a[12] + a[13]) + (a[14] + a[15]))))
        _subtract(w, _multiply(self._h, v, t), w)
        return h


def fl_dot(u: np.ndarray, v: np.ndarray, p: Precision, axis: int = 0) -> np.ndarray | float:
    """Inner product in ``p``: each product rounded, then :func:`fl_sum`
    along ``axis``; natively when both arrays are stored in ``p.dtype``,
    where a 1-d result is a scalar of that dtype."""
    u, v = np.asarray(u), np.asarray(v)
    if u.dtype.type is p.dtype and v.dtype.type is p.dtype:
        return fl_sum(u * v, p, axis=axis)
    prods = fl(np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64), p, inplace=True)
    return fl_sum(prods, p, axis=axis)


def fl_norm2(v: np.ndarray, p: Precision, axis: int = 0) -> np.ndarray | float:
    """Euclidean norm in ``p``: :func:`fl_dot`, then a rounded square
    root, in ``p.dtype`` for an array stored in it."""
    r = np.sqrt(fl_dot(v, v, p, axis=axis))
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


@quiet
def dd_residual(A, x, b) -> np.ndarray:
    """b - A x for the sparse ``A``, accumulated in double-double and
    rounded to double.  ``x`` is a double vector or a ``(hi, lo)`` pair.
    Each row's products are added to a +0 sum in ascending column order,
    through the slots of :meth:`~spai_ir.sparse.SparseMatrix.row_plan`:
    ``x`` is gathered once for all entries, but each slot forms its own
    products, since :func:`dd_mul`'s dozen temporaries over every entry
    at once nearly double the reference solve's memory peak.
    """
    xh, xl = x if isinstance(x, tuple) else (x, np.zeros(np.shape(x)))
    b = require_vector(b, A.n_rows, A.shape, "b").astype(np.float64, copy=False)
    order, cols, vals, slots = A.row_plan()
    xh, xl = (require_vector(w, A.n_cols, A.shape)[cols].astype(np.float64, copy=False) for w in (xh, xl))
    sh, sl, zero = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    for r, start, end in slots:
        ph, pl = dd_mul(vals[start:end], zero[:r], xh[start:end], xl[start:end])
        sh[:r], sl[:r] = dd_add(sh[:r], sl[:r], ph, pl)
    out = np.empty_like(b)
    out[order] = dd_add(b[order], zero, -sh, -sl)[0]
    return out


# ---------------------------------------------------------------------------
# LU in emulated precision, on a band store
# ---------------------------------------------------------------------------


def _columns(store: np.ndarray, n: int, kl: int, ku: int) -> np.ndarray:
    """One n x n view of the store, ``[j, i]`` the factors' entry (i, j);
    an index outside the band names another column's entry."""
    return np.lib.stride_tricks.as_strided(store[ku:], shape=(n, n),
                                           strides=((kl + ku) * store.itemsize, store.itemsize))


@dataclass
class DenseLu:
    """Partial-pivoting factors of a square matrix in LAPACK's band form.

    ``store`` is the band matrix that ``dgbtrf`` leaves, flat in
    column-major order: entry (i, j) is ``store[ku + i + j * (kl + ku)]``
    for i - j in [-ku, kl], and ku >= kl.  U lies on and above the
    diagonal; the multipliers of step k stay in the rows where step k
    computed them, and ``piv[k]`` is the row that step k swapped with row
    k in columns k and on.  An entry the store does not hold is a zero
    that no step touches.  The reach tables bound the substitution:
    ``l_end[k]`` is one past the last nonzero multiplier of step k (k + 1
    if none), ``u_start[k]`` the first nonzero row of column k of U (k if
    none).
    """

    store: np.ndarray
    kl: int
    ku: int
    piv: np.ndarray
    l_end: list = field(init=False, repr=False)
    u_start: list = field(init=False, repr=False)

    def __post_init__(self):
        n, width = len(self.piv), self.kl + self.ku + 1
        nz = self.store.reshape(n, width) != 0.0  # row j: the entries of column j
        shift = np.arange(n) - self.ku  # entry t of column j is row t + j - ku
        # the diagonal is nonzero, so each column has a first and a last nonzero
        self.l_end = (width - nz[:, ::-1].argmax(axis=1) + shift).tolist()
        self.u_start = (nz.argmax(axis=1) + shift).tolist()
        self._piv = self.piv.tolist()

    @property
    def nnz_lu(self) -> int:
        """Nonzero entries of L and U, the unit diagonal of L counted once
        with the diagonal of U."""
        return int(np.count_nonzero(self.store))

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve A X = B in plain double by LAPACK's ``dgbtrs`` on the
        store (cast to float64) and ``piv`` as they are, for ``B`` an n x m
        float64 array in the factored matrix's row order; a ``B`` in
        Fortran order is overwritten with X.  Raises ``ValueError`` for a
        bad argument, ``ku < kl`` before LAPACK would print its own report
        on the C-level stdout."""
        from scipy.linalg.lapack import dgbtrs

        if self.ku < self.kl:  # the upper bandwidth ku - kl, dgbtrs's argument 4, would be negative
            raise ValueError("dgbtrs: illegal value in argument 4")
        ab = self.store.astype(np.float64, copy=False).reshape(len(self.piv), -1).T
        X, info = dgbtrs(ab, self.kl, self.ku - self.kl, B, self.piv, overwrite_b=1)
        if info:
            raise ValueError(f"dgbtrs: illegal value in argument {-info}")
        return X

    @quiet
    def substitute(self, b: np.ndarray, p: Precision) -> np.ndarray:
        """Solve A x = b, for ``b`` in the factored matrix's row order, by
        forward and back substitution, every operation rounded to ``p``;
        returns float64.  Step k swaps entries k and ``piv[k]`` of x, then
        runs over rows k + 1 to ``l_end[k]``; back step k over rows
        ``u_start[k]`` to k.  A skipped x_i - fl(+-0 * x_k) is x_i up to
        the sign of a zero, for a finite x_k.

        One arithmetic form: x lives in ``p.dtype`` (float64 for double
        and quad), a product whose operands differ in dtype is formed in
        float64 and cast once to x's dtype, and every difference and
        quotient is stored natively in x's dtype (see the module
        docstring).  A step's x_k is a kept 0-d array of x's dtype.
        """
        store, off, stride = self.store, self.ku, self.kl + self.ku
        x = np.array(b, dtype=p.dtype or np.float64)
        mixed = x.dtype != store.dtype
        cast = mixed and x.dtype != np.float64
        xk, n = np.empty((), x.dtype), x.shape[0]
        for k, pk, end in zip(range(n - 1), self._piv, self.l_end):
            if pk != k:
                x[k], x[pk] = x[pk], x[k]
            if end > k + 1:
                at, xk[()] = off + k * stride, x[k]
                seg, factor = x[k + 1 : end], store[at + k + 1 : at + end]
                prod = _multiply(factor, xk, dtype=np.float64) if mixed else _multiply(factor, xk)
                _subtract(seg, prod.astype(x.dtype) if cast else prod, seg)
        # each pivot widened to float64: the quotient is rounded once, by its store into x
        pivots = store[off :: stride + 1].astype(np.float64)
        for k, start, pivot in zip(range(n - 1, -1, -1), reversed(self.u_start), pivots[::-1]):
            x[k] = xk[()] = x[k] / pivot
            if start < k:
                at = off + k * stride
                seg, factor = x[start:k], store[at + start : at + k]
                prod = _multiply(factor, xk, dtype=np.float64) if mixed else _multiply(factor, xk)
                _subtract(seg, prod.astype(x.dtype) if cast else prod, seg)
        return x.astype(np.float64, copy=False)


def _reach(v: np.ndarray) -> int:
    """One past the last nonzero entry of ``v``; 0 if there is none."""
    m = len(v)
    if m and v[m - 1] != 0.0:
        return m
    nz = v.nonzero()[0]
    return int(nz[-1]) + 1 if nz.size else 0


@quiet
def dense_lu(A, uf: Precision) -> DenseLu:
    """LU with partial pivoting of the sparse ``A``, every operation
    rounded to ``uf``; ``A`` is not changed.  Returns :class:`DenseLu`
    factors, in float32 for half and single and float64 for double.

    A's entries are cast to ``uf``'s own dtype (float64 for double) into
    the band store, and the elimination runs natively in it, inside the
    envelope: column k holds nonzeros only in rows up to the last nonzero
    row of columns 0..k, which row swaps keep, and those rows only in
    columns up to their last nonzero.  Step k divides the band of its
    column (0 over a negative pivot is -0 in L) and subtracts its rank-1
    update only up to its last nonzero multiplier and pivot-row entry; a
    skipped a - fl(+-0 * u) is a up to the sign of a zero.  An inf or NaN
    in the store raises :class:`OverflowInFactorizationError` (the caller
    may equilibrate and retry), ahead of the :class:`SingularMatrixError`
    of a zero pivot.
    """
    return _eliminate(*_band_store(A, uf.dtype or np.float64), uf)


def _band_store(A, dtype) -> tuple:
    """``(store, n, kl, ku, rows_end, cols_end)`` of the sparse ``A``
    rounded to ``dtype``, as :func:`_eliminate` takes them: the envelope's
    widest reach below and above the diagonal (ku >= kl), its per-step
    ends, and the band store.  An entry that rounds to +-0 is left +0."""
    from .sparse import owners  # here: sparse imports this module

    require_square(A.shape)
    n, v = A.n_rows, A.data.astype(dtype)
    nz = v != 0.0
    i, j, v = A.indices[nz], owners(A.indptr)[nz], v[nz]
    # each row's first and last nonzero column; an empty row counts as one
    # that reaches every column, which is safe
    first, last = np.full(n, n), np.full(n, -1)
    np.minimum.at(first, i, j)
    np.maximum.at(last, i, j)
    first[first == n], last[last < 0] = 0, n - 1
    # one past the last row that may hold a nonzero in columns 0..k (row i
    # does when its first nonzero column is at most k), and one past the last
    # column that may hold a nonzero in those rows
    rows_end = np.zeros(n, np.int64)
    np.maximum.at(rows_end, first, np.arange(1, n + 1))
    rows_end = np.maximum.accumulate(rows_end)
    cols_end = np.maximum.accumulate(last + 1)[np.maximum(rows_end, 1) - 1]
    steps = np.arange(n)
    kl = int((np.maximum(rows_end, steps + 1) - steps).max(initial=1)) - 1
    # ku >= kl makes the store dgbtrs's band form, and ku >= 1 a stride of 1 at least
    ku = max(int((cols_end - steps).max(initial=1)) - 1, int((j - i).max(initial=0)), kl, 1)
    store = np.zeros(n * (kl + ku + 1), dtype)
    store[ku + i + j * (kl + ku)] = v
    return store, n, kl, ku, rows_end.tolist(), cols_end.tolist()


def _zero_pivot(store: np.ndarray, uf: Precision, k: int) -> ArithmeticError:
    """The error for a zero pivot at step k: an overflow if the store
    already holds an inf or NaN, else the singular matrix."""
    if not np.isfinite(store).all():
        return OverflowInFactorizationError(f"overflow in {uf.name}")
    return SingularMatrixError(f"singular in {uf.name}: zero pivot at step {k}")


class _HalfProducts:
    """The rank-1 products of one factorization's float16 elimination
    steps: ``out[j, i]`` is ``row[j] * col[i]`` rounded to half, with the
    bits of numpy's float16 product (a NaN's payload aside).

    numpy converts a float to half on a slow path that signals underflow
    for each inexact subnormal result, where most small fill products of
    a banded elimination land.  So each product is formed in float32,
    where two halves multiply exactly, and a magnitude t below 2**-14 is
    first rounded onto half's subnormal grid: 0.75 has float32 spacing
    2**-24, so (t + 0.75) - 0.75 is the rounding the cast would do, and
    copysign restores the sign.  The cast then meets only exact
    subnormals.  The float32 buffers are made once, for blocks up to
    ``shape``.
    """

    def __init__(self, shape: tuple):
        self.col, self.row = np.empty(shape[1], np.float32), np.empty(shape[0], np.float32)
        size = shape[0] * shape[1]
        self.wide, self.mag, self.low, self.fix = (np.empty(size, np.float32) for _ in range(4))
        self.views = {}

    def __call__(self, col: np.ndarray, row: np.ndarray, out: np.ndarray) -> None:
        views = self.views.get(out.shape)
        if views is None:
            views = self.views[out.shape] = self._views(*out.shape)
        c, r, c_row, r_col, wide, mag, low, fix = views
        c[...], r[...] = col, row
        np.multiply(c_row, r_col, out=wide)
        np.abs(wide, out=mag)
        # below 2**-14, low is the magnitude and fix what rounding it onto
        # the grid adds; from there up (a NaN too), low is 2**-14, on the
        # grid, and fix is 0
        np.fmin(mag, _HALF_MIN_NORMAL, out=low)
        np.add(low, _SUBNORMAL_SHIFT, out=fix)
        np.subtract(fix, _SUBNORMAL_SHIFT, out=fix)
        np.subtract(fix, low, out=fix)
        np.add(mag, fix, out=mag)
        np.copysign(mag, wide, out=mag)
        out[...] = mag

    def _views(self, rows: int, cols: int) -> tuple:
        c, r, size = self.col[:cols], self.row[:rows], rows * cols
        return (c, r, c[None, :], r[:, None],
                *(buffer[:size].reshape(rows, cols) for buffer in (self.wide, self.mag, self.low, self.fix)))


# 0-d arrays, not numpy scalars: a ufunc takes them without a conversion per call
_HALF_MIN_NORMAL = np.array(2.0**-14, np.float32)
_SUBNORMAL_SHIFT = np.array(0.75, np.float32)  # float32 spacing 2**-24


def _eliminate(store: np.ndarray, n: int, kl: int, ku: int, rows_end: list, cols_end: list,
               uf: Precision) -> DenseLu:
    """:func:`dense_lu` in place on the store of :func:`_band_store`,
    natively in its dtype; float16 products come from
    :class:`_HalfProducts`."""
    cols = _columns(store, n, kl, ku)  # cols[j, i] is entry (i, j)
    steps = np.arange(n)
    widest = (np.array(cols_end) - steps).max(initial=1) - 1, (np.maximum(rows_end, steps + 1) - steps).max(initial=1) - 1
    scratch = np.empty(widest, store.dtype)  # (columns, rows) of an update
    products = _HalfProducts(widest) if store.dtype == np.float16 else None
    mag, pivot = np.empty(kl + 1, store.dtype), np.empty((), store.dtype)  # |pivot candidates|, the pivot
    piv = np.arange(n)
    for k in range(n - 1):
        r_end, c_end, column = max(rows_end[k], k + 1), cols_end[k], cols[k]
        p = k + int(np.abs(column[k:r_end], mag[: r_end - k]).argmax())
        pivot[()] = column[p]
        if pivot[()] == 0.0:
            raise _zero_pivot(store, uf, k)
        if p != k:  # rows k and p, in columns k and on
            top, bottom = cols[k:c_end, k], cols[k:c_end, p]
            top[...], bottom[...] = bottom, top.copy()
            piv[k] = p
        col = column[k + 1 : k + 1 + min(kl, n - 1 - k)]
        _divide(col, pivot, col)  # the band of the column: 0 divided by a negative pivot is -0
        row = cols[k + 1 : c_end, k]
        re, ce = _reach(col[: r_end - k - 1]), _reach(row)
        if re and ce:
            t = scratch[:ce, :re]
            if products is None:
                _multiply(col[None, :re], row[:ce, None], t)
            else:
                products(col[:re], row[:ce], t)
            block = cols[k + 1 : k + 1 + ce, k + 1 : k + 1 + re]
            _subtract(block, t, block)
    if cols[n - 1, n - 1] == 0.0:
        raise _zero_pivot(store, uf, n - 1)
    if not np.isfinite(store).all():
        raise OverflowInFactorizationError(f"overflow in {uf.name}")
    return DenseLu(store if uf.dtype is None else store.astype(np.float32, copy=False), kl, ku, piv)


@quiet
def dd_solve(A, b):
    """Reference solution of A x = b, to double-double accuracy: the
    sparse ``A``, after :func:`check_matrix`, is factored once in double
    by :func:`dense_lu` in its given order, and the double-double iterate
    is refined with :func:`dd_residual` until the residual stops falling,
    for at most 8 residuals.  Returns ``(x_hi, x_lo)``, the pair of the
    smallest residual seen; its forward error is of order
    ``unit_roundoff(QUAD) * cond(A)``.
    """
    b = np.asarray(b, dtype=np.float64)
    check_matrix(A, b)
    factors = dense_lu(A, DOUBLE)
    xh = factors.substitute(b, DOUBLE)
    xl = np.zeros_like(xh)
    best, best_pair = math.inf, None
    for _ in range(8):
        rh = dd_residual(A, (xh, xl), b)
        rnorm = float(np.max(np.abs(rh)))
        if not math.isfinite(rnorm):
            raise SingularMatrixError("singular")
        if rnorm >= best:
            break
        best, best_pair = rnorm, (xh, xl)
        d = factors.substitute(rh, DOUBLE)
        xh, xl = dd_add(xh, xl, d, np.zeros_like(d))
    return best_pair
