"""Mixed-precision sparse approximate inverse preconditioning and
GMRES-based iterative refinement."""

from .analysis import BoundReport, check_bounds, cond2_transpose, kappa_inf
from .krylov import GmresReport, pgmres_left
from .precision import (
    DOUBLE,
    HALF,
    QUAD,
    SINGLE,
    Precision,
    dd_residual,
    dd_solve,
    dense_lu,
    parse_precision,
)
from .refine import IrConfig, IrReport, measure_errors, run_ir
from .spai import SpaiParams, SpaiPreconditioner, build_left_preconditioner, build_spai
from .sparse import SparseMatrix, load_matrix_market

__all__ = [
    "Precision",
    "HALF",
    "SINGLE",
    "DOUBLE",
    "QUAD",
    "parse_precision",
    "dd_solve",
    "dd_residual",
    "SparseMatrix",
    "load_matrix_market",
    "SpaiParams",
    "SpaiPreconditioner",
    "build_spai",
    "build_left_preconditioner",
    "GmresReport",
    "pgmres_left",
    "IrConfig",
    "IrReport",
    "run_ir",
    "dense_lu",
    "measure_errors",
    "BoundReport",
    "check_bounds",
    "kappa_inf",
    "cond2_transpose",
]
