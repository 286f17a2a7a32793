"""Software emulation of floating-point formats.

Values are stored in a native ``float64``; a value "lives in" a lower
format when it is a fixed point of :func:`fl` for that format.  Arithmetic
is emulated operate-then-round: each elementary operation is carried out
exactly in double and the result is rounded to the target format by
:func:`fl`, the one rounding kernel (round-to-nearest, ties-to-even,
subnormals kept, overflow to infinity).  Sums follow one fixed pairwise
tree, padded to a power-of-two length with -0, the exact additive
identity, so the padding changes no partial sum (:func:`fl_sum`).  The
tree has one implementation (:func:`_levels`, :func:`_reduce`): it runs
level by level inside one buffer that holds the padded terms and every
level's sums, with no array allocated per level.  :class:`PairwisePlan`
keeps such a buffer and its level views for vectors of one length, so
that GMRES's dots and norms, thousands per solve, reuse them with the
bits of :func:`fl_dot` and :func:`fl_norm2`.  A double plan runs the numpy
levels only down to 16 sums and adds those as Python floats in one
written-out pairwise expression: a Python ``+`` on floats is the same
binary64 addition, and the level's unused rows hold -0, the identity, so
the bits do not change while four numpy calls per dot go.

Half and single values may instead be stored in their own numpy dtype
(``Precision.dtype``) and computed on natively, as GMRES
(:mod:`spai_ir.krylov`), single-precision SPAI builds (:mod:`spai_ir.spai`)
and single-precision dense LU and substitution (:func:`dense_lu`,
:meth:`DenseLu.substitute`) do, with the same bits: an IEEE
``+ - * / sqrt`` in float16 or float32 is the exact result rounded once,
and so is the float64 operation followed by :func:`fl`, since
binary64 carries at least 2t + 2 significant bits for t = 11 and t = 24 and
that double rounding is innocuous (Figueroa, "When is double rounding
innocuous?", SIGNUM 1995).  numpy's float16 loops compute in float32 and
round to half, innocuous for the same reason.  :func:`fl_sum` and
:func:`fl_dot` keep such arrays in their dtype, and :func:`fl` returns them.

Overflow to infinity and 0/0 = NaN are intended results, not errors.  The
functions that compute on emulated values are wrapped in :func:`quiet`, the
one numpy error-state policy, so no numpy warning leaves the package.  The
kernel and the primitives ``fl_op``, ``fl_sum``, ``fl_dot`` and ``fl_norm2``
stay bare because they run in the innermost loops; a caller outside the
package wraps them in :func:`quiet`.

The emulated dense LU does only the work that can change a bit: an
elimination step updates only the rows and columns that its nonzero
multipliers and pivot row reach inside the input's structural envelope, and
the substitution runs over the band of the final factors, so both cost
what the bandwidth of the ordered matrix implies, with the bits of the
loops over whole columns.

The quad-emulated format is realized with compensated double-double
arithmetic built on error-free transformations; it is used for high
accuracy residuals and reference solves, not as a storage format.
"""

from __future__ import annotations

import functools
import math
import threading
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


def check_matrix(A, b=None) -> None:
    """The input gate of every entry point that takes a system: raise
    ``ValueError`` for a non-square sparse ``A`` or one with a NaN or
    infinite entry, and, when ``b`` is given, for a ``b`` whose length is
    not A's order or that has a NaN or infinite entry, in that order."""
    require_square(A.shape)
    if not np.all(np.isfinite(A.data)):
        raise ValueError("matrix A has a NaN or infinite entry")
    if b is not None and len(b) != A.shape[0]:
        raise ValueError(f"right-hand side b has length {len(b)}, expected {A.shape[0]}")
    if b is not None and not np.all(np.isfinite(b)):
        raise ValueError("right-hand side b has a NaN or infinite entry")


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
    the format's range become infinities.  ``x`` comes back as itself for
    double and quad-emulated, which keep the double word, and in ``p.dtype``.

    Overflow to +-inf is the intended result, but the kernel is bare: numpy
    warns of it unless the caller runs under :func:`quiet`.
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


def _padded_length(m: int) -> int:
    return 1 << max(m - 1, 0).bit_length()


def _levels(buf: np.ndarray, m: int) -> list:
    """The pairwise tree over the first ``m`` rows of ``buf`` as ``(a, b,
    out)`` views.

    ``buf`` holds the terms padded with -0 to ``size``, a power of two,
    then room for every level's sums: ``2 * size - 1`` rows in all.  A
    level adds the even and odd rows of its input, ``a + b``, into
    ``out``, the rows right after that input, which are the next level's
    input; the total ends in the last row.  Writing each level beside its
    input, not over it, keeps every output contiguous and apart from its
    operands, so numpy neither checks nor copies for overlap.

    A pair of padding rows sums to -0, so a level adds only the pairs that
    hold a term and leaves the rest of its output alone; where its last
    pair ends on a term, the row after it, which the next level reads, is
    set to -0 here.  The sums are those of the whole padded tree.
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


_TREE_MAX = 1 << 16  # longest 1-d line whose tree is kept, so the cache stays small


@functools.lru_cache(maxsize=128)
def _tree(m: int, dtype, thread: int):
    """A buffer of :func:`fl_sum`'s tree for one line of length ``m`` in
    ``dtype``, padding set, and the views of its levels; one per thread."""
    size = _padded_length(m)
    buf = np.empty(2 * size - 1, dtype)
    buf[m:size] = -0.0 if m else 0.0  # the sum of no terms is +0
    return buf, _levels(buf, m)


def fl_sum(v: np.ndarray, p: Precision, axis: int = 0, lengths=None) -> np.ndarray | float:
    """Sum with every partial addition rounded to ``p``.

    Uses a fixed pairwise reduction order over the array padded with -0 to
    a power-of-two length, so results are deterministic and independent of
    threading.  -0 is the exact additive identity, x + (-0) = x for every x
    including -0, so the padding changes no partial sum and a sum whose
    terms are all -0 is -0 at every length.  Entries are assumed to be
    representable in ``p`` already.  Reduces along ``axis``; a 1-d input
    gives a float.  The tree runs level by level in one buffer that holds
    the padded copy and every level's sums (:func:`_levels`, :func:`_reduce`,
    which :class:`PairwisePlan` runs too); a 1-d line of up to 2**16 terms
    reuses one such buffer per length and dtype (:func:`_tree`).

    An array stored in ``p.dtype`` (float16 or float32) is summed in that
    dtype, level by level, and a 1-d one gives a scalar of that dtype.  The
    bits are those of the float64 round trip, because each native IEEE
    addition is the exact sum rounded once (see the module docstring); only
    the float64 copies and the per-level casts are saved.

    ``lengths`` (broadcastable to the result's shape) sums only the first
    ``lengths`` entries of each reduced line, bit for bit as if that line
    were summed alone: entries past the length are masked to -0 as well.  A
    line of length 0, like an empty input, sums to +0.  Bare, like
    :func:`fl`: outside :func:`quiet` overflow warns.
    """
    s = np.asarray(v)
    native = s.dtype.type is p.dtype
    rounding = None if native or p.dtype is None else p
    if s.ndim == 1 and lengths is None and s.size <= _TREE_MAX:
        buf, levels = _tree(s.size, s.dtype if native else np.float64, threading.get_ident())
        buf[: s.size] = s
        _reduce(levels, rounding)
        return buf[-1] if native else float(buf[-1])
    if axis:
        s = s.swapaxes(0, 1) if axis == 1 else np.moveaxis(s, axis, 0)
    m, rest = s.shape[0], s.shape[1:]
    size = _padded_length(m)
    buf = np.empty((2 * size - 1,) + rest, s.dtype if native else np.float64)
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)  # the mask below broadcasts it
        # one reduction checks both ends: a negative length reads as a huge unsigned one
        if lengths.size and lengths.view(np.uint64).max() > m:
            raise ValueError(f"lengths must lie in [0, {m}]")
        buf[0] = 0.0  # the sum of no terms is +0
        buf[1 : m + 1] = -0.0
        np.copyto(buf[:m], s, where=np.arange(m).reshape((m,) + (1,) * len(rest)) < lengths)
    else:
        buf[:m] = s
        buf[m : m + 1] = -0.0 if m else 0.0  # the sum of no terms is +0
    _reduce(_levels(buf, m), rounding)
    out = buf[-1]
    if out.ndim:
        return out.copy()  # not a view that keeps the whole buffer alive
    return out[()] if native else float(out)


class PairwisePlan:
    """:func:`fl_dot` and :func:`fl_norm2` of length-``m`` vectors stored in
    ``p``'s own dtype (float64 for double), through one reusable tree.

    The plan owns the buffer of :func:`fl_sum`'s tree for length ``m``, its
    padding already set, and the views of its levels (:func:`_levels`), all
    built once.  A call writes the products into the buffer's head and runs
    the tree (:func:`_reduce`), so it allocates no array; no level writes
    into the head or the padding, so nothing of one call reaches the next.
    The results are those of :func:`fl_dot` and :func:`fl_norm2` bit for
    bit, as scalars of the plan's dtype.  GMRES (:mod:`spai_ir.krylov`)
    holds one plan per solve for its Arnoldi dots and norms.  Bare, like
    :func:`fl`.

    A double plan runs its numpy levels only down to the level of 16 sums
    (a plan of at most 16 terms runs none and writes its products straight
    into that level) and adds those 16 as Python floats in one written-out
    pairwise expression, read by one ``tolist``; the tree's last four
    levels would cost one numpy call each for at most 8 additions.  The
    level's rows past its last sum are set to -0 once, here, and no call
    writes them.  The bits are those of the numpy levels: a Python ``+`` on
    floats is one binary64 addition, -0 + -0 = -0, so the extra padding is
    still the identity, and infinities and NaN pass through.  Half and
    single plans keep every level in numpy, where a Python tail would need
    a rounding after every addition.
    """

    def __init__(self, m: int, p: Precision):
        double = p.dtype is None
        size = max(_padded_length(m), 16 if double else 1)
        self._buf = np.full(2 * size - 1, -0.0, p.dtype or np.float64)
        if not m:
            self._buf[0] = 0.0  # the sum of no terms is +0
        self._head = self._buf[:m]
        levels, self._tail = _levels(self._buf, m), None
        if double:  # the last four levels, 16 sums down to 1, run in Python floats
            levels, self._tail = levels[:-4], self._buf[2 * size - 32 : 2 * size - 16]
        self._levels = levels

    def dot(self, u: np.ndarray, v: np.ndarray):
        np.multiply(u, v, out=self._head)
        _reduce(self._levels)
        if self._tail is None:
            return self._buf[-1]
        a = self._tail.tolist()
        return np.float64((((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))
                          + (((a[8] + a[9]) + (a[10] + a[11])) + ((a[12] + a[13]) + (a[14] + a[15]))))

    def norm2(self, v: np.ndarray):
        return np.sqrt(self.dot(v, v))


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


@quiet
def dd_residual(A, x, b) -> np.ndarray:
    """b - A x with all accumulation in double-double, rounded to double.

    ``A`` is a :class:`spai_ir.sparse.SparseMatrix`.  Each row's products
    are added to a +0 sum in ascending column order, slot by slot through
    the prefixes of :meth:`~spai_ir.sparse.SparseMatrix.row_plan`, in the
    permuted row order; one scatter at the end restores the row order.
    ``x`` may be a plain double vector or a ``(hi, lo)`` double-double pair,
    such as the iterate :func:`dd_solve` refines, in which case the residual
    reflects the full compensated accuracy of the pair.
    """
    if not isinstance(x, tuple):
        x = (x, np.zeros(len(x)))
    xh, xl = (np.asarray(w, dtype=np.float64) for w in x)
    b = np.asarray(b, dtype=np.float64)
    order, slots = A.row_plan()
    sh = np.zeros_like(b)
    sl = np.zeros_like(b)
    for r, cols, vals in slots:
        ph, pl = dd_mul(vals, np.zeros_like(vals), xh[cols], xl[cols])
        sh[:r], sl[:r] = dd_add(sh[:r], sl[:r], ph, pl)
    out = np.empty_like(b)
    out[order] = dd_add(b[order], np.zeros_like(b), -sh, -sl)[0]
    return out


# ---------------------------------------------------------------------------
# dense LU in emulated precision
# ---------------------------------------------------------------------------


@dataclass
class DenseLu:
    """Partial-pivoting factors of (a row permutation of) a dense matrix.

    ``lu`` packs both factors in one float64 array: U on and above the
    diagonal, the multipliers of the unit lower factor L below it.  Row
    ``k`` of the factored matrix is row ``perm[k]`` of the input.  ``uf`` is
    the precision the factors were computed in (double if not known); the
    entries of half and single factors are single values, so
    :meth:`substitute` in single runs natively in float32 on a copy of them.

    Two reach tables, taken once from the final factors (after every row
    swap), bound the substitution: ``l_end[k]`` is one past the last
    nonzero multiplier in column k of L (k + 1 if there is none), and
    ``u_start[k]`` is the first nonzero row of column k of U above the
    diagonal (k if there is none).
    """

    lu: np.ndarray
    perm: np.ndarray
    uf: Precision = DOUBLE
    l_end: np.ndarray = field(init=False, repr=False)
    u_start: np.ndarray = field(init=False, repr=False)
    _single: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        n = self.lu.shape[0]
        self.l_end, self.u_start = np.empty(n, np.int64), np.empty(n, np.int64)
        for c in range(0, n, 128):  # 128 columns at a time, so the masks stay small
            nz = self.lu[:, c : c + 128] != 0.0
            k = np.arange(c, c + nz.shape[1])
            self.l_end[c : c + 128] = np.maximum(n - nz[::-1].argmax(axis=0), k + 1)
            self.u_start[c : c + 128] = np.minimum(nz.argmax(axis=0), k)

    @property
    def nnz_lu(self) -> int:
        """Nonzero entries of L and U, the unit diagonal of L counted once
        with the diagonal of U."""
        return int(np.count_nonzero(self.lu))

    @quiet
    def substitute(self, b: np.ndarray, p: Precision) -> np.ndarray:
        """Solve L U x = b for ``b`` already in pivot order by forward and
        back substitution, every operation rounded to ``p``; returns float64.

        Step k of the forward loop runs over the rows of column k of L up to
        ``l_end[k]``, step k of the back loop over the rows of column k of U
        from ``u_start[k]``, so the cost follows the band of the factors,
        not n**2.  The operations and their order are those of the loops
        over whole columns, and so are the bits: a skipped entry is a zero
        factor, and x_i - fl(+-0 * x_k) = x_i unless x_i is -0 or x_k is not
        finite.  An entry still to be updated is -0 only if the rounded
        ``b`` holds a -0 (a difference is -0 only when its minuend is, and a
        quotient, which may be -0, is final), so such a ``b`` takes the
        whole columns from the start; a result that is not finite is
        computed again over them.

        Single-precision substitution of half or single factors runs
        natively in float32 on a copy of the factors made once, with the
        bits of the float64 round trip (see the module docstring); half
        keeps float64 and :func:`fl`.
        """
        if p is SINGLE and self.uf in (HALF, SINGLE):
            if self._single is None:
                self._single = self.lu.astype(np.float32)
            lu, rounding = self._single, None
        else:
            lu, rounding = self.lu, (None if p.dtype is None else p)
        x = np.array(b, dtype=lu.dtype)
        if rounding is not None:
            fl(x, rounding, inplace=True)
        if not np.signbit(x[x == 0.0]).any():
            y = _substitute(lu, x.copy(), rounding, self.l_end.tolist(), self.u_start.tolist())
            if np.isfinite(y).all():
                return y.astype(np.float64, copy=False)
        n = x.shape[0]
        y = _substitute(lu, x, rounding, [n] * n, [0] * n)
        return y.astype(np.float64, copy=False)


def _substitute(lu: np.ndarray, x: np.ndarray, rounding: Precision | None,
                l_end: list, u_start: list) -> np.ndarray:
    """Forward and back substitution with the factors ``lu``, in place on
    ``x``, over the rows that the reach tables ``l_end`` and ``u_start``
    give (see :meth:`DenseLu.substitute`); every operation is rounded to
    ``rounding``, or computed natively in ``x``'s dtype when it is None."""
    n = x.shape[0]
    for k in range(n - 1):
        end = l_end[k]
        if end > k + 1:
            seg = x[k + 1 : end]
            if rounding is None:
                seg -= lu[k + 1 : end, k] * x[k]
            else:
                seg -= fl(lu[k + 1 : end, k] * x[k], rounding, inplace=True)
                fl(seg, rounding, inplace=True)
    for k in range(n - 1, -1, -1):
        xk = x[k] / lu[k, k]
        x[k] = xk = xk if rounding is None else fl(xk, rounding)
        start = u_start[k]
        if start < k:
            seg = x[start:k]
            if rounding is None:
                seg -= lu[start:k, k] * xk
            else:
                seg -= fl(lu[start:k, k] * xk, rounding, inplace=True)
                fl(seg, rounding, inplace=True)
    return x


def _reach(v: np.ndarray) -> int:
    """One past the last nonzero entry of ``v``; 0 if there is none."""
    nz = v.nonzero()[0]
    return int(nz[-1]) + 1 if nz.size else 0


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of ``v`` is finite, by one reduction: a sum with
    an inf or NaN term is not finite.  A finite sum that overflows reads as
    not finite, which only costs the caller its shortcut."""
    return math.isfinite(np.add.reduce(v, dtype=np.float64))


@quiet
def dense_lu(A, uf: Precision) -> DenseLu:
    """LU with partial pivoting, every operation rounded to ``uf``.

    Factors a copy of the dense array ``A``.  Raises
    :class:`SingularMatrixError` on an exactly zero pivot and
    :class:`OverflowInFactorizationError` when the factors contain
    non-finite entries (the caller may equilibrate and retry).  Single
    precision is factored natively in float32 and half in float64 with
    :func:`fl`, with the same bits (see the module docstring).

    Only the work that can change a bit is done.  Rows and columns are
    bounded by the structural envelope of the input: column k can hold a
    nonzero only in the rows up to the last nonzero row of columns 0..k
    (row swaps stay inside it), and those rows only in the columns up to
    their last nonzero column.  Step k searches its pivot and scans its
    pivot row inside that envelope, divides the whole column (0 divided by
    a negative pivot is -0 in L), and subtracts its rank-1 update, formed
    in one reused scratch of the band's size, only from the rows up to its
    last nonzero multiplier and the columns up to the last nonzero entry of
    its pivot row; every entry skipped would get a - fl(+-0 * u) = a.
    Partial pivoting keeps the factors inside the band, so the cost follows
    the bandwidth of the ordered matrix, not n**3.  The factors are those
    of the full-block update bit for bit: a -0 in the rounded input makes
    every step take the full block (-0 - -0 = +0), and so does, from that
    step on, an inf or NaN in a step's multipliers or pivot row (0 * inf =
    NaN), tested by one reduction per vector.
    """
    single = uf is SINGLE
    M = np.asarray(A, dtype=np.float64).astype(np.float32 if single else np.float64)
    require_square(M.shape)
    rounding = None if single or uf.dtype is None else uf
    if rounding is not None:
        fl(M, rounding, inplace=True)
    n = M.shape[0]
    # at most two n x n masks live at once, and argmax runs along rows
    nz = M == 0.0
    minus_zero = np.signbit(M)
    minus_zero &= nz
    full = bool(minus_zero.any())  # a -0 in the rounded input
    del minus_zero
    nz = np.logical_not(nz, out=nz)
    # one past the last row that may hold a nonzero in columns 0..k (row i
    # does when its first nonzero column is at most k), and one past the last
    # column that may hold a nonzero in those rows; an empty row counts as
    # one that reaches every column, which is safe
    rows_end = np.zeros(n, np.int64)
    np.maximum.at(rows_end, nz.argmax(axis=1), np.arange(1, n + 1))
    rows_end = np.maximum.accumulate(rows_end)
    cols_end = np.maximum.accumulate(n - nz[:, ::-1].argmax(axis=1))[np.maximum(rows_end, 1) - 1]
    del nz
    steps = np.arange(n)
    scratch = np.empty(((rows_end - steps).max(initial=1) - 1, (cols_end - steps).max(initial=1) - 1), M.dtype)
    rows_end, cols_end = rows_end.tolist(), cols_end.tolist()
    perm = np.arange(n)
    for k in range(n - 1):
        r_end = n if full else max(rows_end[k], k + 1)
        p = k + int(np.argmax(np.abs(M[k:r_end, k])))
        if M[p, k] == 0.0:
            raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {k}")
        if p != k:
            M[k], M[p] = M[p], M[k].copy()
            perm[k], perm[p] = perm[p], perm[k]
        col = M[k + 1 :, k]
        col /= M[k, k]  # the whole column: 0 divided by a negative pivot is -0
        mult = col[: r_end - k - 1]  # past it, +-0 (or NaN from a NaN pivot)
        if rounding is not None:
            fl(mult, rounding, inplace=True)
        row = M[k, k + 1 : n if full else cols_end[k]]
        if not full and not (_finite(col) and _finite(row)):
            full, row = True, M[k, k + 1 :]
        re, ce = (col.shape[0], row.shape[0]) if full else (_reach(mult), _reach(row))
        if re and ce:
            fits = re <= scratch.shape[0] and ce <= scratch.shape[1]
            t = scratch[:re, :ce] if fits else np.empty((re, ce), M.dtype)
            np.multiply(col[:re, None], row[None, :ce], out=t)
            block = M[k + 1 : k + 1 + re, k + 1 : k + 1 + ce]
            if rounding is None:
                block -= t
            else:
                block -= fl(t, rounding, inplace=True)
                fl(block, rounding, inplace=True)
    if M[n - 1, n - 1] == 0.0:
        raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {n - 1}")
    if not np.all(np.isfinite(M)):
        raise OverflowInFactorizationError(f"overflow in {uf.name}")
    return DenseLu(lu=M.astype(np.float64, copy=False), perm=perm, uf=uf)


@quiet
def dd_solve(A, b):
    """Reference solution of A x = b accurate to double-double level.

    ``A`` is a :class:`spai_ir.sparse.SparseMatrix`.  A dense copy is
    factored once in double with :func:`dense_lu`, whose cost follows the
    bandwidth of ``A`` as ordered.  The double-double iterate is then
    refined with :func:`dd_residual` of the pair until that residual stops
    improving; the limiting forward error is of order
    ``unit_roundoff(QUAD) * cond(A)``.  Returns ``(x_hi, x_lo)`` as a
    normalized double-double pair.  The system passes :func:`check_matrix`
    before the dense copy is made.
    """
    b = np.asarray(b, dtype=np.float64)
    check_matrix(A, b)
    factors = dense_lu(A.to_dense(), DOUBLE)
    xh = factors.substitute(b[factors.perm], DOUBLE)
    xl = np.zeros_like(xh)
    best = math.inf
    for _ in range(8):
        rh = dd_residual(A, (xh, xl), b)
        rnorm = float(np.max(np.abs(rh)))
        if not math.isfinite(rnorm):
            raise SingularMatrixError("singular")
        if rnorm >= best:
            break
        best = rnorm
        d = factors.substitute(rh[factors.perm], DOUBLE)
        xh, xl = dd_add(xh, xl, d, np.zeros_like(d))
    return xh, xl
