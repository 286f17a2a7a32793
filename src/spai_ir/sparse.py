"""Compressed-column sparse matrices, Matrix Market ingestion, batches of
index sets, and kernels (shadows, block extraction, column scaling, rounded
matrix-vector products).

A batch of N sorted index sets is stored as a matrix stores its pattern,
``(ptr, idx)``, set i being ``idx[ptr[i]:ptr[i + 1]]``; entry j of set i
has the key ``i * n + j``, so sorted keys sort by set, then by index.  An
ordered batch ``(ptr, idx, at)`` also gives each entry its position in its
set's arrival order (:func:`in_arrival_order`); its entries stay sorted,
and every kernel takes either kind.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from .precision import Precision, fl, quiet, require_vector

__all__ = [
    "SparseMatrix",
    "MatrixMarketParseError",
    "load_matrix_market",
    "one_set",
    "owners",
    "batch_keys",
    "distinct",
    "keys_to_batch",
    "take_sets",
    "in_arrival_order",
    "arrived_since",
    "to_index_order",
    "shadow",
    "shadows",
    "extract_submatrix",
    "extract_blocks",
    "column_scale",
    "matvec",
]


class MatrixMarketParseError(ValueError):
    """Malformed Matrix Market input; message carries the 1-based line number."""


class SparseMatrix:
    """Immutable sparse matrix in compressed-column form.

    Values are always stored as doubles; a matrix "in precision p" is one
    whose values are all fixed points of rounding to p.  Row indices are
    strictly increasing within each column.

    The constructor keeps the arrays as given: it neither sorts, nor sums
    duplicates, nor drops zeros, so a stored zero (-0 too) stays stored;
    only :meth:`from_coo`, and :meth:`from_dense` through it, does those.
    It freezes the arrays it is given: each is made read-only, in place
    when it already has the stored dtype (int64 indices, float64 data), so
    a later write to the caller's own array fails.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_plan")

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._plan = None
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, vals) -> "SparseMatrix":
        """Build from coordinate data: duplicates summed, exact zeros dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size:
            order = np.lexsort((rows, cols))
            rows, cols, vals = rows[order], cols[order], vals[order]
            newgrp = np.empty(rows.size, dtype=bool)
            newgrp[0] = True
            newgrp[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            grp = np.cumsum(newgrp) - 1
            summed = np.zeros(int(grp[-1]) + 1)
            np.add.at(summed, grp, vals)
            rows, cols = rows[newgrp], cols[newgrp]
            keep = summed != 0.0
            rows, cols, vals = rows[keep], cols[keep], summed[keep]
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_rows, n_cols, indptr, rows, vals)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    # -- basic queries ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def apply(self, v: np.ndarray, p: Precision) -> np.ndarray:
        """The preconditioner interface: ``self @ v`` rounded to p (:func:`matvec`)."""
        return matvec(self, v, p)

    def apply_exact(self, A: "SparseMatrix") -> np.ndarray:
        """The dense product ``self @ A`` in plain double (diagnostics)."""
        return (self.to_scipy_csc() @ A.to_scipy_csc()).toarray()

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column j (views, do not mutate)."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self, rows=None, order: str = "C") -> np.ndarray:
        """The dense float64 matrix in numpy memory ``order``; given a
        permutation ``rows``, it is written straight into ``[rows]``."""
        out = np.zeros((self.n_rows, self.n_cols), order=order)
        i = self.indices
        out[i if rows is None else np.argsort(rows)[i], owners(self.indptr)] = self.data
        return out

    def permuted(self, order) -> "SparseMatrix":
        """``self[order][:, order]`` of a square matrix, every stored entry
        kept as it is."""
        inv = np.argsort(order)
        rows, cols = inv[self.indices], inv[owners(self.indptr)]
        at = np.lexsort((rows, cols))
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=self.n_cols), out=indptr[1:])
        return SparseMatrix(self.n_rows, self.n_cols, indptr, rows[at], self.data[at])

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_coo(self.n_cols, self.n_rows, owners(self.indptr), self.indices, self.data)

    def scale_columns(self, d: np.ndarray) -> "SparseMatrix":
        """New matrix with column j multiplied by d[j]."""
        d = np.asarray(d, dtype=np.float64)
        data = self.data * d[owners(self.indptr)]
        return SparseMatrix(self.n_rows, self.n_cols, self.indptr, self.indices, data)

    @quiet
    def rounded(self, p: Precision) -> "SparseMatrix":
        """Values rounded to p; entries that round to zero are dropped."""
        vals = fl(self.data, p)
        return SparseMatrix.from_coo(self.n_rows, self.n_cols, self.indices, owners(self.indptr), vals)

    def to_scipy_csc(self):
        from scipy.sparse import csc_matrix

        return csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=(self.n_rows, self.n_cols),
        )

    def row_plan(self):
        """``(order, cols, vals, slots)``, built once and cached: ``order``
        sorts the rows by descending entry count, stably; ``cols`` and
        ``vals`` hold every entry, slot by slot, and slot ``(r, start,
        end)`` is ``[start:end]`` of them, the s-th entry, in ascending
        column order, of each of the first ``r`` permuted rows, those with
        more than s entries.  A kernel gathers and multiplies all entries
        at once, then adds slot by slot into the prefix ``y[:r]`` and
        scatters ``y`` to ``order``: each row is added in ascending column
        order with no gather or scatter per slot.
        """
        if self._plan is None:
            cols = owners(self.indptr)
            counts = np.bincount(self.indices, minlength=self.n_rows)
            order = np.argsort(-counts, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(self.n_rows)
            counts = counts[order]
            # entries by permuted row and column, then stably by position in the row
            at = np.lexsort((cols, rank[self.indices]))
            pos = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
            at = at[np.argsort(pos, kind="stable")]
            # slot s holds the rows with more than s entries
            widths = np.searchsorted(-counts, -np.arange(counts.max(initial=0)))
            ends = np.cumsum(widths).tolist()
            self._plan = order, cols[at], self.data[at], [(r, e - r, e) for r, e in zip(widths.tolist(), ends)]
        return self._plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# Matrix Market ingestion
# ---------------------------------------------------------------------------


def _open_lines(source):
    if isinstance(source, (str, Path)):
        return open(source, "rt", encoding="ascii", errors="replace")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("ascii", errors="replace"))
    raise TypeError("source must be a path or bytes")


def load_matrix_market(source) -> SparseMatrix:
    """Parse coordinate-format Matrix Market content from a path or bytes.

    Accepts real or integer fields with general or symmetric symmetry;
    symmetric inputs are expanded to full storage and duplicate entries are
    summed.  Malformed content, including a NaN or infinite value, raises
    :class:`MatrixMarketParseError` naming the offending 1-based line number.
    So does a symmetric file that is not square or that lists an
    off-diagonal entry in both triangles (expansion would double it), and a
    row or column count larger than the number of entries after symmetric
    expansion, which leaves a row or column empty; that check keeps the
    memory a loaded matrix takes proportional to the file.
    """
    fh = _open_lines(source)
    try:
        lineno = 1
        header = fh.readline()
        parts = header.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
            raise MatrixMarketParseError("line 1: expected '%%MatrixMarket matrix ...' header")
        layout, field, symmetry = (p.lower() for p in parts[2:5])
        if layout != "coordinate":
            raise MatrixMarketParseError(f"line 1: unsupported layout {layout!r}")
        if field == "pattern":
            raise MatrixMarketParseError("line 1: pattern-only files carry no values")
        if field not in ("real", "integer"):
            raise MatrixMarketParseError(f"line 1: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketParseError(f"line 1: unsupported symmetry {symmetry!r}")

        size = None
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            toks = s.split()
            if len(toks) != 3:
                raise MatrixMarketParseError(f"line {lineno}: expected 'rows cols nnz'")
            try:
                size = tuple(int(t) for t in toks)
            except ValueError:
                raise MatrixMarketParseError(f"line {lineno}: non-integer size entry") from None
            break
        if size is None:
            raise MatrixMarketParseError(f"line {lineno}: missing size line")
        n_rows, n_cols, nnz = size
        if n_rows <= 0 or n_cols <= 0 or nnz < 0:
            raise MatrixMarketParseError(f"line {lineno}: invalid dimensions {size}")
        if symmetry == "symmetric" and n_rows != n_cols:
            raise MatrixMarketParseError(f"line {lineno}: symmetric matrix must be square, got {size}")
        size_lineno = lineno

        # the entry count is checked against nnz before anything is sized by it
        rows, cols, vals = [], [], []
        off_diagonal = set()  # (i, j) listed so far, symmetric files only
        for line in fh:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            toks = s.split()
            if len(toks) != 3:
                raise MatrixMarketParseError(
                    f"line {lineno}: expected 'row col value', got {len(toks)} fields"
                )
            if len(rows) >= nnz:
                raise MatrixMarketParseError(f"line {lineno}: more entries than declared ({nnz})")
            try:
                i = int(toks[0])
                j = int(toks[1])
                v = float(toks[2])
            except ValueError:
                raise MatrixMarketParseError(f"line {lineno}: malformed entry {s!r}") from None
            if not math.isfinite(v):
                raise MatrixMarketParseError(f"line {lineno}: non-finite value {toks[2]!r}")
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixMarketParseError(f"line {lineno}: index ({i}, {j}) out of range")
            if symmetry == "symmetric" and i != j:
                if (j, i) in off_diagonal:
                    raise MatrixMarketParseError(
                        f"line {lineno}: entry ({i}, {j}) of a symmetric matrix mirrors an entry "
                        f"({j}, {i}) already listed"
                    )
                off_diagonal.add((i, j))
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
        if len(rows) != nnz:
            raise MatrixMarketParseError(f"line {lineno}: expected {nnz} entries, found {len(rows)}")
    finally:
        fh.close()

    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    vals = np.array(vals, dtype=np.float64)

    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    if max(n_rows, n_cols) > rows.size:
        raise MatrixMarketParseError(
            f"line {size_lineno}: {rows.size} entries leave a row or column of {n_rows}x{n_cols} empty"
        )
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


# ---------------------------------------------------------------------------
# structural kernels
# ---------------------------------------------------------------------------


def one_set(indices) -> tuple[np.ndarray, np.ndarray]:
    """The batch of the one sorted index set ``indices``."""
    return np.array([0, np.size(indices)]), np.asarray(indices, dtype=np.int64)


def owners(ptr: np.ndarray) -> np.ndarray:
    """The set each entry of a batch belongs to."""
    return np.arange(ptr.size - 1).repeat(ptr[1:] - ptr[:-1])


def batch_keys(batch, n: int) -> np.ndarray:
    """The key of every entry of a batch of sets of indices below n."""
    return owners(batch[0]) * n + batch[1]


def distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``
    gives them, by one sort: numpy 2's hash-based ``np.unique`` takes
    several times as long on the key arrays of a batch."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def keys_to_batch(keys: np.ndarray, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The batch of N sets whose entries have the sorted, distinct ``keys``."""
    owner = keys // n
    return np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=N))]), keys - owner * n


def take_sets(batch, sel: np.ndarray) -> tuple:
    """The sets ``sel`` of a batch, ordered if the batch is."""
    ptr, pos = batch[0], _gather(batch[0], sel)[0]
    return (np.concatenate([[0], np.cumsum(np.diff(ptr)[sel])]),) + tuple(a[pos] for a in batch[1:])


def _sorted_positions(ptr: np.ndarray) -> np.ndarray:
    """The position of every entry of a batch within its set."""
    return np.arange(ptr[-1]) - ptr[:-1].repeat(ptr[1:] - ptr[:-1])


def in_arrival_order(old, new, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch ``new`` of sets of indices below n, ordered by arrival:
    set i of ``new`` holds set i of the ordered batch ``old``, whose entries
    keep their positions, and the others follow in ascending order."""
    ptr, idx = new[0], new[1]
    owner = owners(ptr)
    kept = np.searchsorted(owner * n + idx, batch_keys(old, n))  # where the old entries are
    fresh = np.ones(idx.size, bool)
    fresh[kept] = False
    ahead = np.concatenate([[0], np.cumsum(fresh)])  # fresh entries ahead of each position
    at = np.diff(old[0])[owner] + ahead[:-1] - ahead[ptr[:-1]][owner]
    at[kept] = old[2]
    return ptr, idx, at


def arrived_since(batch, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of each set i of the ordered ``batch`` that arrived after
    its first ``k[i]``, as an ordered batch with positions counted from
    ``k[i]``."""
    ptr, idx, at = batch
    owner = owners(ptr)
    late = at >= k[owner]
    counts = np.bincount(owner[late], minlength=ptr.size - 1)
    return np.concatenate([[0], np.cumsum(counts)]), idx[late], (at - k[owner])[late]


def to_index_order(batch, X: np.ndarray) -> np.ndarray:
    """Row i of ``X`` (N, K), set i's values in the arrival order of the
    ordered ``batch``, in sorted order, zero past each set's size."""
    ptr, _, at = batch
    owner = owners(ptr)
    out = np.zeros_like(X)
    out[owner, _sorted_positions(ptr)] = X[owner, at]
    return out


def _gather(ptr: np.ndarray, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of the sets (or columns) ``sel`` of ``ptr``,
    set by set, and the position in ``sel`` each comes from."""
    starts = ptr[sel]
    counts = ptr[sel + 1] - starts
    offsets = np.cumsum(counts) - counts
    pos = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
    return pos, np.repeat(np.arange(sel.size), counts)


def shadows(A: SparseMatrix, cols) -> tuple[np.ndarray, np.ndarray]:
    """:func:`shadow` of every set of the batch ``cols`` = ``(ptr, idx)``, as a batch, in one gather."""
    pos, which = _gather(A.indptr, cols[1])
    keys = distinct(owners(cols[0])[which] * A.n_rows + A.indices[pos])
    return keys_to_batch(keys, cols[0].size - 1, A.n_rows)


def shadow(A: SparseMatrix, J: np.ndarray) -> np.ndarray:
    """Rows with a nonzero in any column of J (stored entries are nonzero)."""
    return shadows(A, one_set(J))[1]


def extract_blocks(A: SparseMatrix, rows, cols) -> np.ndarray:
    """Dense blocks A(I_i, J_i) for the batches ``rows`` = I and ``cols`` = J,
    in one gather: an (N, max |I_i|, max |J_i|) array, block i in
    ``[i, :|I_i|, :|J_i|]``, zeros elsewhere.  An ordered batch places its
    entries by ``at``, a plain one by sorted position."""
    I_ptr, J_ptr, J = rows[0], cols[0], cols[1]
    row_at, col_at = (b[2] if len(b) > 2 else _sorted_positions(b[0]) for b in (rows, cols))
    out = np.zeros((J_ptr.size - 1, int(np.diff(I_ptr).max(initial=0)), int(np.diff(J_ptr).max(initial=0))))
    pos, which = _gather(A.indptr, J)
    owner = owners(J_ptr)[which]
    I_keys = batch_keys(rows, A.n_rows)
    keys = owner * A.n_rows + A.indices[pos]
    at = np.searchsorted(I_keys, keys)
    hit = at < I_keys.size
    hit[hit] = I_keys[at[hit]] == keys[hit]
    owner, at, which = owner[hit], at[hit], which[hit]
    out[owner, row_at[at], col_at[which]] = A.data[pos[hit]]
    return out


def extract_submatrix(A: SparseMatrix, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Dense copy of A(I, J) for sorted index sets I, J."""
    return extract_blocks(A, one_set(I), one_set(J))[0]


def column_scale(At: SparseMatrix) -> tuple[SparseMatrix, np.ndarray]:
    """``(scaled, d)``: scaled(:, j) = At(:, j) * d[j] has largest magnitude
    exactly 1; a zero or non-finite column raises ``ValueError``."""
    counts = np.diff(At.indptr)
    if np.any(counts == 0):
        j = int(np.nonzero(counts == 0)[0][0])
        raise ValueError(f"zero column: column {j} has no nonzeros")
    colmax = np.maximum.reduceat(np.abs(At.data), At.indptr[:-1])
    if not np.all(np.isfinite(colmax)) or np.any(colmax == 0.0):
        raise ValueError("zero column: column maxima must be positive and finite")
    d = 1.0 / colmax
    return At.scale_columns(d), d


@quiet
def matvec(A: SparseMatrix, x: np.ndarray, p: Precision) -> np.ndarray:
    """A @ x with every product and partial sum rounded to p: each row's
    products are added to +0 in ascending column order, through the slots
    of :meth:`SparseMatrix.row_plan`.  All products are formed at once in
    double and cast once to ``p.dtype``, then each slot is added natively
    in it, which rounds each sum once as the emulation does; a format that
    keeps the double word (double, quad-emulated) adds in float64.
    """
    order, cols, vals, slots = A.row_plan()
    t = np.multiply(vals, require_vector(x, A.n_cols, A.shape)[cols], dtype=np.float64)
    t = t.astype(p.dtype or np.float64, copy=False)
    y = np.zeros(A.n_rows, t.dtype)
    for r, start, end in slots:
        seg = y[:r]
        seg += t[start:end]
    out = np.empty(A.n_rows)
    out[order] = y
    return out
