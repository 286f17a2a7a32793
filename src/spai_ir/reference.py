"""Reference data: the benchmark matrices' published properties, the
golden tables used as regression bands, and the names of the shipped
synthetic matrices.  The benchmark matrices are not shipped; their Matrix
Market files go in :func:`matrix_dir`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MATRICES",
    "SYNTHETIC",
    "GOLDEN_TABLES",
    "TABLE_SETTINGS",
    "GoldenRow",
    "matrix_dir",
    "find_matrix",
    "rhs_for",
]

# name -> published properties: dimension, nonzeros, nonzeros of the
# inverse, infinity-norm condition number, and the 2-norm condition measure
# of the transpose.  "group" records which precision combination the matrix
# is benchmarked with: sdq = (single, double, quad), hsd = (half, single,
# double).
MATRICES = {
    "pores_3": dict(n=532, nnz=3474, nnz_inv=213712, kappa_inf=1.2e6, cond2_t=1.7e5, group="sdq"),
    "steam1": dict(n=240, nnz=2248, nnz_inv=57599, kappa_inf=3.1e7, cond2_t=2.8e3, group="sdq"),
    "steam3": dict(n=80, nnz=314, nnz_inv=6315, kappa_inf=7.6e10, cond2_t=5.6e3, group="sdq"),
    "saylr1": dict(n=238, nnz=1128, nnz_inv=56644, kappa_inf=1.6e9, cond2_t=5.2e5, group="sdq"),
    "bfwa782": dict(n=782, nnz=7514, nnz_inv=458839, kappa_inf=6.8e3, cond2_t=1.3e3, group="hsd"),
    "cage5": dict(n=37, nnz=233, nnz_inv=1369, kappa_inf=2.9e1, cond2_t=7.5e0, group="hsd"),
    "gre_115": dict(n=115, nnz=421, nnz_inv=13225, kappa_inf=1.4e2, cond2_t=3.7e1, group="hsd"),
    "orsreg_1": dict(n=2205, nnz=14133, nnz_inv=4862025, kappa_inf=7.0e3, cond2_t=5.9e3, group="hsd"),
    "sherman4": dict(n=1104, nnz=3786, nnz_inv=298674, kappa_inf=3.1e3, cond2_t=1.2e3, group="hsd"),
}

# Names of the synthetic matrices shipped with the repository
# (deterministically generated by tools/gen_matrices.py; their sizes are
# those of the files).  These carry the invariant-based acceptance checks
# in environments without the benchmark files.
SYNTHETIC = ("ident_32", "band_asym_120", "lap2d_196", "dd_rand_64", "conv_diff_225", "colscale_80")


@dataclass(frozen=True)
class GoldenRow:
    """One published table row used as a regression band."""

    matrix: str
    precond: str  # "spai" | "lu" | "none"
    eps: float | None
    kappa_tilde: float
    nnz: int
    iters_per_step: tuple

    @property
    def total_iters(self) -> int:
        return int(sum(self.iters_per_step))


# Per-table precision settings: (uf, u, ur) flags and GMRES tolerance.
TABLE_SETTINGS = {
    "t4": dict(uf="s", u="d", ur="q", tau=1e-8),
    "t5": dict(uf="h", u="s", ur="d", tau=1e-4),
    "t6": dict(uf="s", u="s", ur="d", tau=1e-4),
}

# The published LU rows used AMD, nested-dissection or RCM orderings; the
# reproduction always orders with RCM (its LU bands do not set the CLI exit code).
GOLDEN_TABLES = {
    "t4": [
        GoldenRow("pores_3", "spai", 0.5, 6.6e3, 3560, (110, 113)),
        GoldenRow("pores_3", "spai", 0.4, 3.8e3, 4871, (86, 88)),
        GoldenRow("pores_3", "lu", None, 1.0, 9706, (2, 2)),
        GoldenRow("pores_3", "none", None, 1.2e6, 0, (417, 456, 441)),
        GoldenRow("steam1", "spai", 0.2, 1.5, 1140, (7, 7)),
        GoldenRow("steam1", "spai", 0.1, 1.5, 1303, (7, 7)),
        GoldenRow("steam1", "lu", None, 1.9, 14133, (2,)),
        GoldenRow("steam1", "none", None, 3.1e7, 0, (158, 193, 192)),
        GoldenRow("steam3", "spai", 0.5, 3.9, 244, (9, 12, 10)),
        GoldenRow("steam3", "spai", 0.1, 1.9, 403, (5, 6, 6)),
        GoldenRow("steam3", "lu", None, 1.1, 483, (2,)),
        GoldenRow("steam3", "none", None, 7.6e10, 0, (61, 80, 80)),
        GoldenRow("saylr1", "spai", 0.4, 1.9e4, 1932, (64, 66, 65)),
        GoldenRow("saylr1", "spai", 0.3, 7.5e3, 3405, (44, 45)),
        GoldenRow("saylr1", "lu", None, 1.0, 3607, (2, 3)),
        GoldenRow("saylr1", "none", None, 1.6e9, 0, (214, 229, 215)),
    ],
    "t5": [
        GoldenRow("bfwa782", "spai", 0.5, 1.1e3, 6271, (75, 89)),
        GoldenRow("bfwa782", "spai", 0.3, 5.0e2, 11430, (54, 60)),
        GoldenRow("bfwa782", "lu", None, 2.1, 21838, (3, 4)),
        GoldenRow("bfwa782", "none", None, 6.8e3, 0, (172, 209)),
        GoldenRow("cage5", "spai", 0.5, 9.9, 101, (8, 8)),
        GoldenRow("cage5", "spai", 0.3, 3.9, 213, (6, 6)),
        GoldenRow("cage5", "lu", None, 1.0, 359, (2,)),
        GoldenRow("cage5", "none", None, 2.9e1, 0, (13, 12)),
        GoldenRow("gre_115", "spai", 0.5, 5.8e2, 725, (24, 24)),
        GoldenRow("gre_115", "spai", 0.3, 1.8e1, 1719, (10, 11)),
        GoldenRow("gre_115", "lu", None, 1.0, 1551, (2,)),
        GoldenRow("gre_115", "none", None, 1.4e2, 0, (49, 51)),
        GoldenRow("orsreg_1", "spai", 0.5, 1.7e2, 9261, (29, 45, 34)),
        GoldenRow("orsreg_1", "spai", 0.3, 1.3e2, 11120, (23, 38)),
        GoldenRow("orsreg_1", "lu", None, 2.2, 133634, (4, 5)),
        GoldenRow("orsreg_1", "none", None, 7.0e3, 0, (107, 150, 95)),
        GoldenRow("sherman4", "spai", 0.5, 1.6e3, 1386, (67, 73)),
        GoldenRow("sherman4", "spai", 0.3, 5.0e2, 8496, (35, 39)),
        GoldenRow("sherman4", "lu", None, 1.8, 14211, (2, 3)),
        GoldenRow("sherman4", "none", None, 3.1e3, 0, (85, 93)),
    ],
    "t6": [
        GoldenRow("bfwa782", "spai", 0.5, 1.1e3, 6261, (74, 92)),
        GoldenRow("bfwa782", "spai", 0.3, 5.0e2, 11470, (54, 60)),
        GoldenRow("bfwa782", "lu", None, 1.0, 21848, (1,)),
        GoldenRow("bfwa782", "none", None, 6.8e3, 0, (172, 209)),
        GoldenRow("cage5", "spai", 0.5, 9.9, 101, (8, 8)),
        GoldenRow("cage5", "spai", 0.3, 3.9, 213, (6, 6)),
        GoldenRow("cage5", "lu", None, 1.0, 359, (1,)),
        GoldenRow("cage5", "none", None, 2.9e1, 0, (13, 12)),
        GoldenRow("gre_115", "spai", 0.5, 6.2e2, 725, (24, 27)),
        GoldenRow("gre_115", "spai", 0.3, 1.7e1, 1739, (10, 10)),
        GoldenRow("gre_115", "lu", None, 1.0, 1556, (1,)),
        GoldenRow("gre_115", "none", None, 1.4e2, 0, (49, 51)),
        GoldenRow("orsreg_1", "spai", 0.5, 1.4e2, 9261, (25, 40, 32)),
        GoldenRow("orsreg_1", "spai", 0.3, 1.1e2, 11025, (22, 38)),
        GoldenRow("orsreg_1", "lu", None, 1.0, 330910, (1,)),
        GoldenRow("orsreg_1", "none", None, 7.0e3, 0, (107, 150, 95)),
        GoldenRow("sherman4", "spai", 0.5, 1.6e3, 1385, (67, 73)),
        GoldenRow("sherman4", "spai", 0.3, 5.0e2, 8499, (35, 39)),
        GoldenRow("sherman4", "lu", None, 1.0, 14211, (1,)),
        GoldenRow("sherman4", "none", None, 3.1e3, 0, (85, 93)),
    ],
}


def matrix_dir() -> Path:
    """Directory searched for Matrix Market files: ``SPAI_IR_MATRIX_DIR``
    if set, else ``./matrices`` if it exists, else the repository's copy
    (``./matrices`` if neither exists)."""
    env = os.environ.get("SPAI_IR_MATRIX_DIR")
    if env:
        return Path(env)
    cwd = Path.cwd() / "matrices"
    if cwd.is_dir():
        return cwd
    repo = Path(__file__).resolve().parents[2] / "matrices"
    return repo if repo.is_dir() else cwd


def find_matrix(name: str) -> Path | None:
    """``name`` if it is an existing ``.mtx`` file, else ``<name>.mtx`` in
    :func:`matrix_dir` if it exists, else ``None``."""
    candidate = Path(name)
    if candidate.suffix == ".mtx" and candidate.is_file():
        return candidate
    path = matrix_dir() / f"{name}.mtx"
    return path if path.is_file() else None


def rhs_for(n: int):
    """Right-hand side used in all benchmark runs: equal entries, unit 2-norm."""
    import numpy as np

    return np.full(n, 1.0 / np.sqrt(n))
