"""Seeded stand-in matrices for the benchmark workloads.

Every family has a fixed sparsity structure; the seed only perturbs
coefficients, by a few percent around fixed base values, so the work a
solver does changes little from seed to seed while no two seeds give the
same numbers.  Structure that is random in the shipped suite (``dd_rand``)
is drawn from a fixed generator, never from the seed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

# fixed seed for random structure and for the heterogeneous base fields
_STRUCTURE_SEED = 20240611
# relative size of the seeded coefficient perturbation
JITTER = 0.05


def _jitter(rng, shape):
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0, size=shape)


def conv_diff_2d(m: int, seed: int) -> sp.csr_matrix:
    """Central-difference convection-diffusion on an m x m grid (n = m^2).

    Convection is 0.4 in x and 0.15 in y, relative to unit diffusion; the
    seed jitters the diagonal and every off-diagonal coefficient.
    """
    gx, gy = 0.4, 0.15
    rng = np.random.default_rng([seed, 1, m])
    n = m * m
    idx = np.arange(n).reshape(m, m)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [4.0 * _jitter(rng, n)]
    for src, dst, base in (
        (idx[:, 1:], idx[:, :-1], -1.0 - gx),
        (idx[:, :-1], idx[:, 1:], -1.0 + gx),
        (idx[1:, :], idx[:-1, :], -1.0 - gy),
        (idx[:-1, :], idx[1:, :], -1.0 + gy),
    ):
        rows.append(src.ravel())
        cols.append(dst.ravel())
        vals.append(base * _jitter(rng, src.size))
    return _csr(n, rows, cols, vals)


def stencil_3d(shape, seed: int) -> sp.csr_matrix:
    """7-point convection stencil on a heterogeneous 3-D grid.

    Mirrors the reservoir-simulation matrices of the ``sherman`` family: a
    fixed log-uniform transmissibility field over one decade, convection in
    the first axis (0.3 relative to the transmissibility), and a diagonal that
    is the sum of the off-diagonal magnitudes plus an accumulation term of
    0.05 times the local field.  The seed jitters each coefficient.
    """
    conv, accumulation = 0.3, 0.05
    nx, ny, nz = shape
    n = nx * ny * nz
    base = np.random.default_rng([_STRUCTURE_SEED, nx, ny, nz])
    perm = 10.0 ** base.uniform(-0.5, 0.5, size=shape)
    rng = np.random.default_rng([seed, 2, n])
    idx = np.arange(n).reshape(shape)
    rows, cols, vals = [], [], []
    offdiag_sum = np.zeros(n)
    for axis in range(3):
        for step in (-1, 1):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            if step == 1:
                lo[axis], hi[axis] = slice(0, -1), slice(1, None)
            else:
                lo[axis], hi[axis] = slice(1, None), slice(0, -1)
            src = idx[tuple(lo)].ravel()
            dst = idx[tuple(hi)].ravel()
            t = np.sqrt(perm[tuple(lo)] * perm[tuple(hi)]).ravel()
            c = t * (1.0 + (conv * step if axis == 0 else 0.0))
            v = -c * _jitter(rng, src.size)
            rows.append(src)
            cols.append(dst)
            vals.append(v)
            np.add.at(offdiag_sum, src, -v)
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(offdiag_sum + accumulation * perm.ravel() * _jitter(rng, n))
    return _csr(n, rows, cols, vals)


def band_asym(n: int, seed: int) -> sp.csr_matrix:
    """Banded nonsymmetric matrix with a far sub-diagonal (band_asym family)."""
    rng = np.random.default_rng([seed, 4, n])
    i = np.arange(n)
    rows = [i, i[1:], i[:-1], i[9:]]
    cols = [i, i[1:] - 1, i[:-1] + 1, i[9:] - 9]
    vals = [
        4.0 * _jitter(rng, n),
        (-1.0 + 0.3 * np.sin(0.7 * i[1:])) * _jitter(rng, n - 1),
        -1.4 * _jitter(rng, n - 1),
        0.6 * _jitter(rng, n - 9),
    ]
    return _csr(n, rows, cols, vals)


def dd_rand(n: int, seed: int) -> sp.csr_matrix:
    """Random-pattern diagonally dominant matrix; the pattern is fixed."""
    base = np.random.default_rng([_STRUCTURE_SEED, 5, n])
    rng = np.random.default_rng([seed, 5, n])
    rows, cols = [], []
    for r in range(n):
        offs = base.choice(n, size=5, replace=False)
        offs = offs[offs != r]
        rows.append(np.full(offs.size, r))
        cols.append(offs)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    off = base.uniform(-1.0, 1.0, size=rows.size) * _jitter(rng, rows.size)
    diag = np.zeros(n)
    np.add.at(diag, rows, np.abs(off))
    diag += 1.0 + 0.5 * base.uniform(0.0, 1.0, size=n) * _jitter(rng, n)
    return _csr(n, [rows, np.arange(n)], [cols, np.arange(n)], [off, diag])


def colscale(n: int, seed: int) -> sp.csr_matrix:
    """Banded matrix under a fixed two-sided scaling over two decades."""
    base = np.random.default_rng([_STRUCTURE_SEED, 6, n])
    rng = np.random.default_rng([seed, 6, n])
    i = np.arange(n)
    rows = [i, i[1:], i[:-1], i[:-5]]
    cols = [i, i[1:] - 1, i[:-1] + 1, i[:-5] + 5]
    vals = [
        4.0 * _jitter(rng, n),
        -1.0 * _jitter(rng, n - 1),
        -0.8 * _jitter(rng, n - 1),
        0.3 * _jitter(rng, n - 5),
    ]
    dl = 10.0 ** base.uniform(-1.0, 1.0, size=n)
    dr = 10.0 ** base.uniform(-1.0, 1.0, size=n)
    B = _csr(n, rows, cols, vals)
    return sp.csr_matrix(sp.diags(dl) @ B @ sp.diags(dr))


def _csr(n, rows, cols, vals) -> sp.csr_matrix:
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A
