"""Compressed-column sparse matrices, Matrix Market ingestion, and
precision-aware kernels (shadow, submatrix extraction, column scaling,
rounded matrix-vector products).
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from .precision import Precision, fl, quiet

__all__ = [
    "SparseMatrix",
    "MatrixMarketParseError",
    "index_set",
    "load_matrix_market",
    "shadow",
    "shadows",
    "extract_submatrix",
    "extract_blocks",
    "column_scale",
    "matvec",
]


class MatrixMarketParseError(ValueError):
    """Malformed Matrix Market input; message carries the 1-based line number."""


def index_set(indices) -> np.ndarray:
    """Sorted, duplicate-free int64 index array."""
    return np.unique(np.asarray(indices, dtype=np.int64))


class SparseMatrix:
    """Immutable sparse matrix in compressed-column form.

    Values are always stored as doubles; a matrix "in precision p" is one
    whose values are all fixed points of rounding to p.  Row indices are
    strictly increasing within each column and exact zeros are dropped at
    construction.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_slots")

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._slots = None
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

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        cols = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        out[self.indices, cols] = self.data
        return out

    def transpose(self) -> "SparseMatrix":
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))
        return SparseMatrix.from_coo(self.n_cols, self.n_rows, cols, self.indices, self.data)

    def scale_columns(self, d: np.ndarray) -> "SparseMatrix":
        """New matrix with column j multiplied by d[j]."""
        d = np.asarray(d, dtype=np.float64)
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))
        return SparseMatrix(self.n_rows, self.n_cols, self.indptr, self.indices, self.data * d[cols])

    @quiet
    def rounded(self, p: Precision) -> "SparseMatrix":
        """Values rounded to p; entries that round to zero are dropped."""
        vals = fl(self.data, p)
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))
        return SparseMatrix.from_coo(self.n_rows, self.n_cols, self.indices, cols, vals)

    def to_scipy_csc(self):
        from scipy.sparse import csc_matrix

        return csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=(self.n_rows, self.n_cols),
        )

    def row_slots(self):
        """Padded row-major accumulation plan.

        Returns a list of ``(rows, cols, vals)`` triplets such that each row
        index appears at most once per slot and, across slots, a given row's
        entries appear in ascending column order.  Rounded accumulation slot
        by slot therefore reproduces the canonical "columns left to right"
        order for every output component while staying vectorized.
        """
        if self._slots is None:
            cols = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))
            rows = self.indices
            order = np.lexsort((cols, rows))
            r, c, v = rows[order], cols[order], self.data[order]
            starts = np.searchsorted(r, np.arange(self.n_rows))
            pos = np.arange(r.size) - starts[r]
            width = int(pos.max()) + 1 if r.size else 0
            slots = []
            for pslot in range(width):
                m = pos == pslot
                slots.append((r[m], c[m], v[m]))
            self._slots = slots
        return self._slots

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


def _flatten(index_sets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated index sets, the set each entry belongs to, and each set's size."""
    sizes = np.array([len(s) for s in index_sets], dtype=np.int64)
    flat = np.concatenate([np.empty(0, np.int64), *index_sets]).astype(np.int64, copy=False)
    return flat, np.repeat(np.arange(sizes.size), sizes), sizes


def _gather_columns(A: SparseMatrix, J: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored entry of the columns J, column by column: row indices,
    positions in J and values."""
    starts = A.indptr[J]
    counts = A.indptr[J + 1] - starts
    offsets = np.cumsum(counts) - counts
    idx = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
    return A.indices[idx], np.repeat(np.arange(J.size), counts), A.data[idx]


def shadows(A: SparseMatrix, index_sets) -> list[np.ndarray]:
    """:func:`shadow` of every column set in ``index_sets``, in one gather."""
    if not len(index_sets):
        return []
    flat, owner, _ = _flatten(index_sets)
    rows, which, _ = _gather_columns(A, flat)
    keys = np.unique(owner[which] * A.n_rows + rows)
    owner = keys // A.n_rows
    counts = np.bincount(owner, minlength=len(index_sets))
    return np.split(keys - owner * A.n_rows, np.cumsum(counts)[:-1])


def shadow(A: SparseMatrix, J: np.ndarray) -> np.ndarray:
    """Rows with a nonzero in any column of J (stored entries are nonzero)."""
    return shadows(A, [J])[0]


def extract_blocks(A: SparseMatrix, row_sets, col_sets) -> np.ndarray:
    """Dense blocks A(I_i, J_i) for sorted index sets, in one gather.

    Returns an (N, max |I_i|, max |J_i|) array holding block i in
    ``[i, :|I_i|, :|J_i|]`` and zeros elsewhere.
    """
    I, I_owner, I_sizes = _flatten(row_sets)
    J, J_owner, J_sizes = _flatten(col_sets)
    out = np.zeros((len(col_sets), int(I_sizes.max(initial=0)), int(J_sizes.max(initial=0))))
    rows, which, vals = _gather_columns(A, J)
    owner = J_owner[which]
    I_keys = I_owner * A.n_rows + I
    keys = owner * A.n_rows + rows
    pos = np.searchsorted(I_keys, keys)
    hit = pos < I.size
    hit[hit] = I_keys[pos[hit]] == keys[hit]
    owner, pos, which = owner[hit], pos[hit], which[hit]
    I_start = np.cumsum(I_sizes) - I_sizes
    J_start = np.cumsum(J_sizes) - J_sizes
    out[owner, pos - I_start[owner], which - J_start[owner]] = vals[hit]
    return out


def extract_submatrix(A: SparseMatrix, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Dense copy of A(I, J) for sorted index sets I, J."""
    return extract_blocks(A, [I], [J])[0]


def column_scale(At: SparseMatrix) -> tuple[SparseMatrix, np.ndarray]:
    """Scale each column of At so its largest magnitude becomes exactly 1.

    Returns ``(scaled, d)``, the positive diagonal d as an array with
    scaled(:, j) = At(:, j) * d[j]; folding the preconditioner back is
    P = (M^T) D for the M built from the scaled matrix.
    """
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
    """A @ x with every product and partial sum rounded to p.

    Accumulation order is fixed: within each output component, contributions
    are added in ascending column order (equivalently: columns left to
    right, ascending row within a column), so results are reproducible and
    independent of threading.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != A.n_cols:
        raise ValueError(f"dimension mismatch: {A.shape} @ {x.shape}")
    y = np.zeros(A.n_rows)
    for rows, cols, vals in A.row_slots():
        t = fl(vals * x[cols], p)
        y[rows] = fl(y[rows] + t, p)
    return y
