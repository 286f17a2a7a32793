"""Runners for single solves, parameter sweeps and golden tables, which
the command-line interface prints."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import cond2_transpose, feasible, kappa_estimate, kappa_inf, kappa_inf_product
from .precision import Precision, check_matrix, dd_solve, parse_precision
from .refine import IrConfig, IrReport, prepare_solver, run_ir
from .reference import GOLDEN_TABLES, TABLE_SETTINGS, GoldenRow, find_matrix, rhs_for
from .spai import SpaiParams, build_left_preconditioner
from .sparse import SparseMatrix, load_matrix_market

__all__ = [
    "NNZ_BAND",
    "ITERS_BAND",
    "SolveOutcome",
    "result_row",
    "solve_system",
    "run_sweep",
    "run_table",
]

# Regression bands applied when comparing against the published tables:
# preconditioner size within 15 percent, total GMRES iterations within 25.
NNZ_BAND = 0.15
ITERS_BAND = 0.25


@dataclass
class SolveOutcome:
    """One solve: its report, whose ``details`` hold the settings and
    preconditioner size, its solution, and kappa(PA) (``None`` unasked)."""

    matrix: str
    report: IrReport
    x: np.ndarray
    kappa_tilde: float | None


def solve_system(
    A: SparseMatrix,
    name: str,
    solver: str,
    uf: Precision,
    u: Precision,
    ur: Precision,
    *,
    ug: Precision | None = None,
    up: Precision | None = None,
    eps: float | None = None,
    alpha: int | None = None,
    beta: int = SpaiParams.beta,
    tau: float | None = None,
    i_max: int = IrConfig.i_max,
    with_kappa: bool = True,
    x_ref=None,
) -> SolveOutcome:
    """Prepare the solver, refine ``A x = rhs_for(n)`` and, with
    ``with_kappa``, take kappa(PA), under the :class:`IrConfig` that these
    arguments make."""
    cfg = IrConfig(
        uf=uf, u=u, ur=ur, solver=solver, tau=tau, i_max=i_max, ug=ug, up=up,
        spai=SpaiParams(eps=eps, alpha=alpha, beta=beta, uf=uf) if solver == "spai" else None,
    )
    P = prepare_solver(A, cfg)
    b = rhs_for(A.n_rows)
    x, report = run_ir(A, b, cfg, solver=P, x_ref=x_ref)
    kappa_tilde = None
    if with_kappa:
        kappa_tilde = kappa_inf(A) if P is None else kappa_inf_product(P, A)
    return SolveOutcome(matrix=name, report=report, x=x, kappa_tilde=kappa_tilde)


def run_sweep(A: SparseMatrix, name: str, eps_grid, uf_list, beta: int = SpaiParams.beta) -> list[dict]:
    """One row of preconditioner stats per (eps, build precision) cell, in
    grid order, after :func:`check_matrix`; no solve.  A cell whose build
    raises ``ArithmeticError`` or ``ValueError`` gets status ``error: ...``."""
    check_matrix(A)
    cond2_at = cond2_transpose(A)
    rows = []
    for eps in map(float, eps_grid):
        for uf in uf_list:
            row = {
                "matrix": name,
                "eps": eps,
                "uf": uf.name,
                "estimate": kappa_estimate(A.n_rows, eps),
                "feasible": feasible(uf, cond2_at, eps),
                "nnz": None,
                "kappa_tilde": None,
                "satisfied_all": None,
                "status": "ok",
            }
            try:
                pre = build_left_preconditioner(A, SpaiParams(eps=eps, beta=beta, uf=uf))
                row["nnz"] = pre.nnz
                row["satisfied_all"] = pre.all_satisfied
                row["kappa_tilde"] = kappa_inf_product(pre.P, A)
            except (ArithmeticError, ValueError) as exc:  # per-cell failures recorded, sweep continues
                row["status"] = f"error: {exc}"
            rows.append(row)
    return rows


def _within(value: float, ref: float, band: float) -> bool:
    if ref == 0:
        return value == 0
    return abs(value - ref) <= band * abs(ref)


def result_row(matrix: str, precond: str, eps: float | None, uf: str,
               outcome: SolveOutcome | None = None, golden: GoldenRow | None = None) -> dict:
    """One row of ``spai-ir solve`` and ``spai-ir table``; without an
    ``outcome`` the matrix file is missing.  ``golden`` adds the published
    values and, for a solved row, the band checks against them."""
    row = {"matrix": matrix, "precond": precond, "eps": eps, "uf": uf,
           "status": "ok" if outcome is not None else "missing"}
    if golden is not None:
        row.update(ref_nnz=golden.nnz, ref_total_iters=golden.total_iters)
    if outcome is None:
        return row
    rep = outcome.report
    nnz = rep.details["precond_nnz"]
    row.update(kappa_tilde=outcome.kappa_tilde, nnz=nnz, steps=rep.steps,
               iters_per_step=list(rep.gmres_iters_per_step), total_iters=rep.total_gmres_iters,
               converged=rep.converged, ferr=rep.ferr_history[-1], nbe=rep.nbe_history[-1])
    if golden is not None:
        row.update(ref_kappa_tilde=golden.kappa_tilde, ref_iters_per_step=list(golden.iters_per_step),
                   nnz_ok=_within(nnz, golden.nnz, NNZ_BAND),
                   iters_ok=_within(rep.total_gmres_iters, golden.total_iters, ITERS_BAND))
    return row


def run_table(name: str, *, solvers=None, with_kappa: bool = True) -> list[dict]:
    """The rows of golden table ``name``, a missing matrix file's as
    ``missing``; ``solvers``, a subset of spai, lu and none, keeps only
    its rows.  An unknown table or kind raises ``ValueError``."""
    if name not in GOLDEN_TABLES:
        raise ValueError(f"unknown table {name!r}; expected one of {sorted(GOLDEN_TABLES)}")
    unknown = set(solvers or ()) - {"spai", "lu", "none"}
    if unknown:
        raise ValueError(f"unknown table solvers {sorted(unknown)}; expected a subset of spai, lu, none")
    settings = TABLE_SETTINGS[name]
    uf, u, ur = (parse_precision(settings[key]) for key in ("uf", "u", "ur"))
    rows = []
    # matrix name -> (A, double-double reference solution), or None if the file is missing
    systems: dict[str, tuple | None] = {}
    for row in GOLDEN_TABLES[name]:
        if solvers is not None and row.precond not in solvers:
            continue
        if row.matrix not in systems:
            path = find_matrix(row.matrix)
            systems[row.matrix] = None
            if path is not None:
                A = load_matrix_market(path)
                systems[row.matrix] = (A, dd_solve(A, rhs_for(A.n_rows)))
        outcome = None
        if systems[row.matrix] is not None:
            A, x_ref = systems[row.matrix]
            outcome = solve_system(A, row.matrix, row.precond, uf, u, ur, eps=row.eps,
                                   tau=settings["tau"], with_kappa=with_kappa, x_ref=x_ref)
        rows.append(result_row(row.matrix, row.precond, row.eps, uf.name, outcome, golden=row))
    return rows
