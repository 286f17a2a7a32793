"""Software emulation of floating-point formats.

Values are stored in a native ``float64``; a value "lives in" a lower
format when it is a fixed point of :func:`fl` for that format.  Arithmetic
is emulated operate-then-round: each elementary operation is carried out
exactly in double and the result is rounded to the target format by
:func:`fl`, the one rounding kernel (round-to-nearest, ties-to-even,
subnormals kept, overflow to infinity).  Sums follow one fixed pairwise
tree, padded to a power-of-two length with -0, the exact additive
identity, so the padding changes no partial sum (:func:`fl_sum`); a
batch whose lines differ in size pads them with -0 too, and so gets each
line's own sum.  The tree has one implementation (:func:`_levels`,
:func:`_reduce`): it runs level by level inside one buffer that holds the
padded terms and every level's sums, with no array allocated per level.
:class:`PairwisePlan`, the one kind of kept tree, keeps such a buffer and
its level views for vectors of one length: GMRES holds one per solve for
its dots and norms, thousands per solve, each modified Gram-Schmidt step
one call (:meth:`PairwisePlan.mgs_step`), and :func:`fl_sum` one per
length for its 1-d lines.  A double plan runs the numpy levels only down
to 16 sums and adds those as Python floats in one written-out pairwise
expression: a Python ``+`` on floats is the same binary64 addition, and
the level's unused rows hold -0, the identity, so the bits do not change
while four numpy calls per dot go.

Half and single values may instead be stored in their own numpy dtype
(``Precision.dtype``) and computed on natively, as GMRES
(:mod:`spai_ir.krylov`), single-precision SPAI builds (:mod:`spai_ir.spai`),
dense LU in half and single (:func:`dense_lu`) and single-precision
substitution (:meth:`DenseLu.substitute`) do, with the same bits: an IEEE
``+ - * / sqrt`` in float16 or float32 is the exact result rounded once,
and so is the float64 operation followed by :func:`fl`, since
binary64 carries at least 2t + 2 significant bits for t = 11 and t = 24 and
that double rounding is innocuous (Figueroa, "When is double rounding
innocuous?", SIGNUM 1995).  numpy's float16 loops compute in float32 and
round to half, innocuous for the same reason.  :func:`fl_sum` and
:func:`fl_dot` keep such arrays in their dtype, and :func:`fl` returns them.
A float16 elimination step rounds its subnormal products before its one
cast to float16, which spares numpy's slow underflow path and keeps the
bits (:class:`_HalfProducts`).  Half and single LU factors are both kept
in float32, which holds every single value exactly (half's are factored
in float16 and widened once at the end: the single-precision substitution
that hsd GMRES runs is slower on float16 factors); a substitution in half
or double forms each product with a float32 factor in float64, where it
is exact, and a half one casts it once to float16 and subtracts natively.
The per-step loops hand numpy their scalar operands as kept 0-d arrays.

Overflow to infinity and 0/0 = NaN are intended results, not errors.  The
functions that compute on emulated values are wrapped in :func:`quiet`, the
one numpy error-state policy, so no numpy warning leaves the package.  The
kernel and the primitives ``fl_op``, ``fl_sum``, ``fl_dot`` and ``fl_norm2``
stay bare because they run in the innermost loops; a caller outside the
package wraps them in :func:`quiet`.

The emulated LU does only the work that can change a bit: an elimination
step updates only the rows and columns that its nonzero multipliers and
pivot row reach inside the input's structural envelope, and the
substitution runs over the band of the factors, so both cost what the
bandwidth of the ordered matrix implies.  The factors live in one
column-major band store that is filled straight from the sparse matrix,
LAPACK's ``dgbtrf`` band matrix with each multiplier kept in the row where
it was computed (:class:`DenseLu`).  It holds (kl + ku + 1) n entries for
kl rows below and ku >= kl rows above the diagonal, at most (2n - 1) n
when the envelope is as wide as the matrix, so neither the LU
preconditioner nor the double-double reference solve of a banded matrix
makes an n x n array.  The LU contract: a rounded -0 in the input is the
+0 it stands for, an entry outside the envelope is a zero that no step
touches, and an inf or NaN anywhere in the store is an overflow, raised
ahead of a zero pivot (:func:`dense_lu`); the factors and solutions are
then those of the loops over whole columns of a dense array, up to the
sign of a zero.  The kappa(PA) diagnostic solves with the same factors in
plain double, by LAPACK's ``dgbtrs`` on the store itself, cast to float64
when it is float32 (:meth:`DenseLu.solve`).

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
    infinite entry, :class:`SingularMatrixError` for an ``A`` with a row or
    column that stores no nonzero entry, and, when ``b`` is given,
    ``ValueError`` for a ``b`` that is not a vector, whose length is not
    A's order or that has a NaN or infinite entry, in that order."""
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
    if b is not None and np.ndim(b) != 1:
        raise ValueError(f"right-hand side b has shape {np.shape(b)}, expected length {A.shape[0]}")
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


def fl_sum(v: np.ndarray, p: Precision, axis: int = 0) -> np.ndarray | float:
    """Sum with every partial addition rounded to ``p``.

    Uses a fixed pairwise reduction order over the array padded with -0 to
    a power-of-two length, so results are deterministic and independent of
    threading.  -0 is the exact additive identity, x + (-0) = x for every x
    including -0, so the padding changes no partial sum and a sum whose
    terms are all -0 is -0 at every length; a sum of no terms is +0.
    Entries are assumed to be representable in ``p`` already.  Reduces
    along the whole ``axis``, so a caller whose lines differ in size pads
    them with -0 (see :mod:`spai_ir.spai`); a 1-d input gives a float.  A
    1-d line stored in ``p``'s own dtype (float64 for double) runs through
    a kept :class:`PairwisePlan` of its length, one per precision and
    thread; any other input through one buffer built per call that holds
    the padded copy and every level's sums (:func:`_levels`, :func:`_reduce`).

    An array stored in ``p.dtype`` (float16 or float32) is summed in that
    dtype, level by level, and a 1-d one gives a scalar of that dtype.  The
    bits are those of the float64 round trip, because each native IEEE
    addition is the exact sum rounded once (see the module docstring); only
    the float64 copies and the per-level casts are saved.  Bare, like
    :func:`fl`: outside :func:`quiet` overflow warns.
    """
    s = np.asarray(v)
    if s.ndim == 1 and s.dtype.type is (p.dtype or np.float64):
        total = _kept_plan(s.size, p, threading.get_ident()).sum(s)
        return total if p.dtype else float(total)
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
    """:func:`fl_sum`, :func:`fl_dot` and :func:`fl_norm2` of length-``m``
    vectors stored in ``p``'s own dtype (float64 for double), through one
    reusable tree.

    The plan owns the buffer of :func:`fl_sum`'s tree for length ``m``, its
    padding already set to -0, and the views of its levels (:func:`_levels`),
    all built once.  A call writes the terms or the products into the
    buffer's head and runs the tree (:meth:`_total`), so it allocates no
    array; no level writes into the head or the padding, so nothing of one
    call reaches the next.  The results are those of the functions bit for
    bit, as scalars of the plan's dtype.  GMRES (:mod:`spai_ir.krylov`)
    holds one plan per solve, and :func:`fl_sum` one per length, precision
    and thread.  Bare, like :func:`fl`.

    :meth:`mgs_step` is GMRES's whole modified Gram-Schmidt step, the dot
    and the update of the vector being orthogonalized, in one call and one
    Python frame; it is the one place that repeats the tree's level loop
    and double tail inline (its docstring says why).

    A double plan runs its numpy levels only down to the level of 16 sums
    (a plan of at most 16 terms runs none and writes its terms straight
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
        # mgs_step's h as a 0-d array: the tree's last row, or where a double plan writes its tail's sum
        self._h = self._buf[-1, ...]
        if double:  # the last four levels, 16 sums down to 1, run in Python floats
            levels, self._tail, self._h = levels[:-4], self._buf[2 * size - 32 : 2 * size - 16], np.empty(())
        self._levels = levels

    def sum(self, v: np.ndarray):
        self._head[...] = v
        return self._total()

    def dot(self, u: np.ndarray, v: np.ndarray):
        np.multiply(u, v, out=self._head)
        return self._total()

    def norm2(self, v: np.ndarray):
        return np.sqrt(self.dot(v, v))

    def mgs_step(self, v: np.ndarray, w: np.ndarray, t: np.ndarray):
        """One modified Gram-Schmidt step of GMRES: ``h = fl_dot(v, w)``,
        then ``w -= fl(h v)`` in place through the scratch vector ``t``;
        returns ``h``, a Python float in double and a scalar of the plan's
        dtype otherwise.

        The products go into the head and the tree runs as in :meth:`dot`,
        with the same operations in the same order, so ``h`` and ``w`` have
        the bits of :meth:`dot` followed by the update.  The level loop and
        the double tail are written out here again, not reached through
        :meth:`_total`, and ``h`` reaches the update as a kept 0-d array:
        GMRES makes this call for every basis vector of every iteration,
        where a frame hop, a scalar built and taken apart again, a
        conversion of a scalar operand, a keyword ``out`` and a ufunc looked
        up through ``np`` each cost a measurable share of a solve.
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

    def _total(self):
        """Run the tree over the terms in the head and return their sum."""
        _reduce(self._levels)
        if self._tail is None:
            return self._buf[-1]
        a = self._tail.tolist()
        return np.float64((((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))
                          + (((a[8] + a[9]) + (a[10] + a[11])) + ((a[12] + a[13]) + (a[14] + a[15]))))


# fl_sum's plans for 1-d lines, by length, precision and thread: a call writes into its plan's buffer
_kept_plan = functools.lru_cache(maxsize=128)(lambda m, p, thread: PairwisePlan(m, p))


def fl_dot(u: np.ndarray, v: np.ndarray, p: Precision, axis: int = 0) -> np.ndarray | float:
    """Inner product in ``p``: each product rounded, then a rounded pairwise
    sum (see :func:`fl_sum` for ``axis``, padding and overflow).

    When both arrays are stored in ``p.dtype`` the products and the sum are
    computed natively in that dtype, with the same bits as the float64
    round trip (see the module docstring), and a 1-d result is a scalar of
    that dtype."""
    u, v = np.asarray(u), np.asarray(v)
    if u.dtype.type is p.dtype and v.dtype.type is p.dtype:
        return fl_sum(u * v, p, axis=axis)
    prods = fl(np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64), p, inplace=True)
    return fl_sum(prods, p, axis=axis)


def fl_norm2(v: np.ndarray, p: Precision, axis: int = 0) -> np.ndarray | float:
    """Euclidean norm computed in ``p``: a rounded dot, then a rounded square
    root (see :func:`fl_sum` for ``axis``, padding and overflow).  An
    array stored in ``p.dtype`` gives a result of that dtype, as in
    :func:`fl_dot`."""
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
# LU in emulated precision, on a band store
# ---------------------------------------------------------------------------


def _columns(store: np.ndarray, n: int, kl: int, ku: int) -> np.ndarray:
    """One n x n view of the store, ``[j, i]`` the factors' entry (i, j).
    Every index of it lies inside the store, but one outside the band
    names an entry of another column, so only the band may be read or
    written through it."""
    return np.lib.stride_tricks.as_strided(store[ku:], shape=(n, n),
                                           strides=((kl + ku) * store.itemsize, store.itemsize))


@dataclass
class DenseLu:
    """Partial-pivoting factors of a square matrix in LAPACK's band form.

    The store is the band matrix AB that ``dgbtrf`` leaves, kept flat in
    column-major order: column j holds rows j - ku to j + kl in its ``kl +
    ku + 1`` entries, so element (i, j) is ``store[ku + i + j * (kl + ku)]``.
    ku >= kl, so it is AB for ``kl`` and an upper bandwidth of ku - kl.  An
    envelope as wide as the matrix gives (2n - 1) x n entries.  U lies on
    and above the diagonal.  As in ``dgbtrf``, the multipliers of step k
    stay in the rows where step k computed them, below the diagonal of
    column k, and ``piv[k]`` is the row that step k interchanged with row
    k, in columns k and on; a later interchange does not move them.  An
    entry the store does not hold is a zero that no step of
    :func:`dense_lu` or :meth:`substitute` touches.  :func:`dense_lu` keeps
    half and single factors, whose entries are single values, in float32,
    and double factors in float64.  :meth:`substitute` solves with them in
    an emulated precision, :meth:`solve` in plain double by LAPACK.

    Two reach tables, taken from the store in one pass, bound the
    substitution: ``l_end[k]`` is one past the last nonzero multiplier of
    step k (k + 1 if there is none), and ``u_start[k]`` is the first
    nonzero row of column k of U above the diagonal (k if there is none).
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
        """Solve A X = B in plain double by LAPACK's ``dgbtrs``, for ``B``
        an n x m float64 array in the row order of the factored matrix A;
        a ``B`` in Fortran order is overwritten with X, which is returned.
        Raises ``ValueError`` if ``dgbtrs`` would report a bad argument:
        factors with ``ku < kl`` are refused here, before LAPACK's error
        handler prints its own report on the process's C-level stdout.

        ``dgbtrs`` takes the factors as ``dgbtrf`` leaves them, which is how
        the store holds them: ``piv`` goes as it is (scipy's wrapper adds
        Fortran's 1), and the store, cast to float64 if it is float32, as
        the Fortran (kl + ku + 1) x n array AB with upper bandwidth ku - kl."""
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
        """Solve A x = b, for ``b`` in the row order of the factored matrix
        A, by forward and back substitution, every operation rounded to
        ``p``; returns float64.

        Step k of the forward loop first interchanges entries k and
        ``piv[k]`` of x, then runs over the rows of step k's multipliers up
        to ``l_end[k]``; step k of the back loop runs over the rows of
        column k of U from ``u_start[k]``.  So the cost follows the band of
        the factors, not n**2.  Each entry gets the operations of the loops
        over whole columns of the factors, in their order, except those
        with the zeros outside each step's reach, which no step touches:
        x_i - fl(+-0 * x_k) is x_i, up to the sign of a zero, for every
        finite x_k.

        With float32 factors, single and half substitution run natively in
        float32 and float16, with the bits of the float64 round trip (see
        the module docstring): a half step forms its products in float64,
        where a single times a half is exact, casts them once to float16
        and subtracts natively.  Any other runs in float64, with :func:`fl`
        below double.  Each quotient is formed in float64 and rounded once.
        A step's x_k is a kept 0-d array of x's dtype, which a ufunc takes
        without a conversion; a product whose operands differ in dtype
        names float64, since numpy 1.x casts a 0-d operand by its value.
        """
        store, off, stride = self.store, self.ku, self.kl + self.ku
        native = store.dtype == np.float32 and p.dtype is not None  # half or single factors in p's dtype
        x = fl(np.array(b, dtype=p.dtype if native else np.float64), p, inplace=True)
        rounding = None if native or p.dtype is None else p
        mixed, half = x.dtype != store.dtype, x.dtype == np.float16
        xk, n = np.empty((), x.dtype), x.shape[0]
        for k, pk, end in zip(range(n - 1), self._piv, self.l_end):
            if pk != k:
                x[k], x[pk] = x[pk], x[k]
            if end > k + 1:
                at, xk[()] = off + k * stride, x[k]
                seg, factor = x[k + 1 : end], store[at + k + 1 : at + end]
                prod = _multiply(factor, xk, dtype=np.float64) if mixed else _multiply(factor, xk)
                if rounding is None:
                    _subtract(seg, prod.astype(np.float16) if half else prod, seg)
                else:
                    _subtract(seg, fl(prod, rounding, inplace=True), seg)
                    fl(seg, rounding, inplace=True)
        # each pivot widened to float64: the quotient of a half by a single is rounded once, from double
        pivots = store[off :: stride + 1].astype(np.float64)
        for k, start, pivot in zip(range(n - 1, -1, -1), reversed(self.u_start), pivots[::-1]):
            q = x[k] / pivot
            x[k] = xk[()] = q if rounding is None else fl(q, rounding)
            if start < k:
                at = off + k * stride
                seg, factor = x[start:k], store[at + start : at + k]
                prod = _multiply(factor, xk, dtype=np.float64) if mixed else _multiply(factor, xk)
                if rounding is None:
                    _subtract(seg, prod.astype(np.float16) if half else prod, seg)
                else:
                    _subtract(seg, fl(prod, rounding, inplace=True), seg)
                    fl(seg, rounding, inplace=True)
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
    """LU with partial pivoting, every operation rounded to ``uf``.

    ``A`` is a :class:`spai_ir.sparse.SparseMatrix`; it is not changed.
    A's entries are rounded to ``uf`` by a cast to the format's own dtype,
    float16 for half, float32 for single and float64 for double, which is
    :func:`fl`, and written straight into a band store of that dtype
    (:class:`DenseLu`, :func:`_band_store`) of (kl + ku + 1) n entries, so
    a banded matrix gets no n x n array.  The elimination runs natively in
    that dtype, with the bits of the float64-then-round loop (see the
    module docstring); a half step forms its products in float32 and
    rounds the subnormal ones arithmetically before its cast to float16,
    which spares numpy's slow underflow path and keeps the bits
    (:class:`_HalfProducts`).  Half and single factors are returned in
    float32, which holds them exactly and which single-precision
    substitution runs in, and double factors in float64.

    Only the work that can change a bit is done, on the entries inside the
    structural envelope of the rounded input, and an entry outside it is a
    zero that no step touches.  Column k can hold a nonzero only in the rows
    up to the last nonzero row of columns 0..k (row swaps stay inside it),
    and those rows only in the columns up to their last nonzero column.
    The band of the store is the widest such reach below and above the
    diagonal.  Step k searches its pivot and swaps its rows inside that
    envelope, divides the band of its column (0 divided by a negative
    pivot is -0 in L), and subtracts its rank-1 update, formed in one
    reused scratch of the band's size, only from the rows up to its last
    nonzero multiplier and the columns up to the last nonzero entry of its
    pivot row.  Every entry skipped would get a - fl(+-0 * u) = a up to the
    sign of a zero while the factors are finite, so they are those of the
    full-block update with whole-row swaps, up to the sign of a zero, each
    multiplier in the row where it was computed, as ``dgbtrf`` keeps them.
    Each step reads its pivot column, pivot row and update block through
    one view of the store made once (:func:`_columns`).

    The contract: a -0 in the rounded input is the +0 it stands for; an
    inf or NaN anywhere in the store, which no later operation makes
    finite again, raises :class:`OverflowInFactorizationError` (the caller
    may equilibrate and retry), ahead of the
    :class:`SingularMatrixError` that an exactly zero pivot raises.
    """
    return _eliminate(*_band_store(A, uf.dtype or np.float64), uf)


def _band_store(A, dtype) -> tuple:
    """The band store of the sparse ``A`` rounded to ``dtype`` and the
    envelope of the rounded matrix, as :func:`_eliminate` takes them:
    ``(store, n, kl, ku, rows_end, cols_end)``.  kl and ku are the widest
    reach of the envelope below and above the diagonal, ku raised to kl
    where it is smaller, and the store is :class:`DenseLu`'s band matrix
    of (kl + ku + 1) n entries.  An entry that rounds to +-0 is left out:
    it is the +0 that every entry the store does not fill holds."""
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
    """The rank-1 products of the float16 elimination steps of one
    factorization: ``out[j, i]`` is ``row[j] * col[i]`` rounded to half,
    the bits of numpy's float16 ``col[None, :] * row[:, None]`` (a NaN is
    a NaN, whatever its payload).

    numpy rounds a float to half in software and signals underflow, on a
    slow path, for each inexact subnormal result.  A half product lands
    there whenever it is below 2**-14 in magnitude
    and not a multiple of 2**-24, as most of the small fill products of a
    banded elimination do.  So each product is formed in float32, where
    the product of two halves is exact (22 significant bits, exponents
    from -48 to 32), and a magnitude t below 2**-14 is rounded onto half's
    subnormal grid first: 0.75 has float32 spacing 2**-24, so
    (t + 0.75) - 0.75 is t rounded to nearest, ties to even, at a multiple
    of 2**-24, which is what the cast would give.  copysign gives back the
    sign, that of a zero included.  The cast to float16 then rounds the
    other products as before and meets only exact subnormals, which it
    converts on its fast path.  The float32 buffers are made once, for
    blocks of up to ``shape``, and their views once per block shape.
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
    """:func:`dense_lu` in place on the store :func:`_band_store` made,
    which holds values of ``uf`` in its own dtype; every operation runs
    natively in that dtype and so is rounded to ``uf`` once.  In float16
    the rank-1 products are formed by :class:`_HalfProducts`, in float32
    buffers made once per factorization, and cast once into the float16
    scratch, with the bits of the native product; the subtraction stays
    native."""
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
    """Reference solution of A x = b accurate to double-double level.

    ``A`` is a :class:`spai_ir.sparse.SparseMatrix`.  It is factored once
    in double by :func:`dense_lu`, straight from its entries into a band
    store of (kl + ku + 1) n entries, (2n - 1) n at most when A's envelope
    is as wide as A, and the cost follows the bandwidth of ``A`` as
    ordered.  The double-double iterate is then refined with
    :func:`dd_residual` of the pair until that residual stops improving,
    for at most 8 residuals; the limiting forward error is of order
    ``unit_roundoff(QUAD) * cond(A)``.  Returns ``(x_hi, x_lo)``, the
    normalized double-double pair of the smallest residual seen.  The
    system passes :func:`check_matrix` before it is factored.
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
