"""Mixed-precision iterative refinement with interchangeable correction solvers.

The driver computes an initial solution with the chosen factorization or
preconditioner, then repeats residual (in the residual precision),
correction solve (preconditioned GMRES or triangular solves), and update
(in the working precision) until the measured errors reach the working
accuracy, stagnation is detected, or the step limit binds.  Five precisions
participate: factorization/construction, working, residual, GMRES working,
and operator application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .precision import (
    QUAD,
    Precision,
    SingularMatrixError,
    dd_residual,
    dd_solve,
    fl_op,
    round_array,
)
from .krylov import GmresConfig, GmresReport, pgmres_left
from .spai import SpaiParams, SpaiPreconditioner, build_left_preconditioner
from .sparse import SparseMatrix, matvec

__all__ = [
    "IrConfig",
    "IrReport",
    "DenseLu",
    "LuPreconditioner",
    "OverflowInFactorizationError",
    "dense_lu",
    "rcm_permutation",
    "measure_errors",
    "norm_inf",
    "run_ir",
    "prepare_solver",
]

SOLVERS = ("spai", "lu", "none", "sir")


class OverflowInFactorizationError(ArithmeticError):
    """The factorization produced non-finite entries in the target precision."""


@dataclass(frozen=True)
class IrConfig:
    """Precisions, tolerances, and solver selection for one refinement run.

    ``uf`` is the factorization/construction precision, ``u`` the working
    precision, ``ur`` the residual precision, ``ug``/``up`` the GMRES
    working and application precisions (both default to ``u``).  The run
    converges when the normwise backward error is at most ``c_nbe * n * u``
    and (unless ``use_ferr`` is off) the forward error is at most
    ``c_ferr * n * u``; with ``use_ferr`` off the forward-error check is
    replaced by the relative step size reaching ``u``.
    """

    uf: Precision
    u: Precision
    ur: Precision
    solver: str = "spai"
    tau: float = 1e-8
    i_max: int = 10
    ug: Precision | None = None
    up: Precision | None = None
    spai: SpaiParams | None = None
    c_ferr: float = 1.0
    c_nbe: float = 1.0
    use_ferr: bool = True
    gmres_max_iters: int | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        if self.i_max < 1:
            raise ValueError("i_max must be at least 1")
        # quad-emulated has no storage format: only the residual is computed in it
        for name in ("uf", "u", "ug", "up"):
            if getattr(self, name) == QUAD:
                raise ValueError(f"quad-emulated is a residual precision only; {name} cannot be quad")

    @property
    def gmres_ug(self) -> Precision:
        return self.ug if self.ug is not None else self.u

    @property
    def gmres_up(self) -> Precision:
        return self.up if self.up is not None else self.u


@dataclass
class IrReport:
    """Step/iteration counts and error histories of one refinement run."""

    steps: int
    gmres_iters_per_step: list[int]
    total_gmres_iters: int
    ferr_history: list[float]
    nbe_history: list[float]
    converged: bool
    stagnated: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "gmres_iters_per_step": list(self.gmres_iters_per_step),
            "total_gmres_iters": self.total_gmres_iters,
            "ferr_history": [float(v) for v in self.ferr_history],
            "nbe_history": [float(v) for v in self.nbe_history],
            "converged": self.converged,
            "stagnated": self.stagnated,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# dense LU in emulated precision
# ---------------------------------------------------------------------------


@dataclass
class DenseLu:
    """Partial-pivoting factors of (a permutation of) a dense matrix.

    ``nnz_lu`` counts the nonzero entries of L+U after rounding to the
    factorization precision (unit diagonal of L included via the sum).
    """

    L: np.ndarray
    U: np.ndarray
    perm: np.ndarray
    nnz_lu: int
    uf: Precision


def dense_lu(A, uf: Precision) -> DenseLu:
    """LU with partial pivoting, every operation rounded to ``uf``.

    Raises :class:`~spai_ir.precision.SingularMatrixError` on an exactly
    zero pivot and :class:`OverflowInFactorizationError` when the factors
    contain non-finite entries (the caller may equilibrate and retry).
    """
    M = A.to_dense() if isinstance(A, SparseMatrix) else np.array(A, dtype=np.float64)
    M = round_array(M, uf)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    perm = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n - 1):
            p = k + int(np.argmax(np.abs(M[k:, k])))
            if M[p, k] == 0.0:
                raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {k}")
            if p != k:
                M[[k, p]] = M[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            M[k + 1 :, k] = round_array(M[k + 1 :, k] / M[k, k], uf)
            M[k + 1 :, k + 1 :] = round_array(
                M[k + 1 :, k + 1 :] - round_array(np.outer(M[k + 1 :, k], M[k, k + 1 :]), uf), uf
            )
    if M[n - 1, n - 1] == 0.0:
        raise SingularMatrixError(f"singular in {uf.name}: zero pivot at step {n - 1}")
    if not np.all(np.isfinite(M)):
        raise OverflowInFactorizationError(f"overflow in {uf.name}")
    L = np.tril(M, -1) + np.eye(n)
    U = np.triu(M)
    nnz_lu = int(np.count_nonzero(L + U))
    return DenseLu(L=L, U=U, perm=perm, nnz_lu=nnz_lu, uf=uf)


def _solve_unit_lower(L: np.ndarray, b: np.ndarray, p: Precision) -> np.ndarray:
    x = round_array(np.asarray(b, dtype=np.float64), p).copy()
    for k in range(L.shape[0] - 1):
        x[k + 1 :] = round_array(x[k + 1 :] - round_array(L[k + 1 :, k] * x[k], p), p)
    return x


def _solve_upper(U: np.ndarray, b: np.ndarray, p: Precision) -> np.ndarray:
    x = np.array(b, dtype=np.float64)
    for k in range(U.shape[0] - 1, -1, -1):
        x[k] = fl_op("div", x[k], U[k, k], p=p)
        x[:k] = round_array(x[:k] - round_array(U[:k, k] * x[k], p), p)
    return x


def equilibrate_two_sided(A: SparseMatrix, uf: Precision):
    """Row and column scaling pushing entries into a safe range for ``uf``.

    Returns diagonals (r, s) and a scalar mu such that mu * R A S has
    magnitudes at most ``0.1 * max_finite(uf)``; used as a retry when a
    low-precision factorization overflows.
    """
    dense = np.abs(A.to_dense())
    rowmax = dense.max(axis=1)
    if np.any(rowmax == 0.0):
        raise SingularMatrixError("structurally singular: empty row")
    r = 1.0 / rowmax
    colmax = (dense * r[:, None]).max(axis=0)
    if np.any(colmax == 0.0):
        raise SingularMatrixError("structurally singular: empty column")
    s = 1.0 / colmax
    mu = 0.1 * uf.max_finite
    return r, s, mu


class LuPreconditioner:
    """Applies (an approximation of) the inverse via stored LU factors.

    Optionally wraps two-sided scaling: with factors of mu * R A S, applying
    the preconditioner to v computes S (U^-1 L^-1 Pi (mu R v)), every
    elementary operation rounded to the requested precision.
    """

    def __init__(self, factors: DenseLu, r=None, s=None, mu: float = 1.0):
        self.factors = factors
        self.r = r
        self.s = s
        self.mu = mu

    @property
    def nnz(self) -> int:
        return self.factors.nnz_lu

    def apply(self, v: np.ndarray, p: Precision) -> np.ndarray:
        x = round_array(np.asarray(v, dtype=np.float64), p)
        if self.r is not None:
            x = round_array(round_array(self.mu * x, p) * self.r, p)
        x = x[self.factors.perm]
        x = _solve_unit_lower(self.factors.L, x, p)
        x = _solve_upper(self.factors.U, x, p)
        if self.s is not None:
            x = round_array(x * self.s, p)
        return x

    def apply_dense_exact(self, X: np.ndarray) -> np.ndarray:
        """Plain double-precision application to a dense block (diagnostics)."""
        from scipy.linalg import solve_triangular

        Y = np.array(X, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if self.r is not None:
            Y = (self.mu * Y) * self.r[:, None]
        Y = Y[self.factors.perm]
        Y = solve_triangular(self.factors.L, Y, lower=True, unit_diagonal=True)
        Y = solve_triangular(self.factors.U, Y)
        if self.s is not None:
            Y = Y * self.s[:, None]
        return Y


def rcm_permutation(A: SparseMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering on the symmetrized pattern."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    S = A.to_scipy_csc()
    pattern = (abs(S) + abs(S.T)).tocsr()
    return np.asarray(reverse_cuthill_mckee(pattern, symmetric_mode=True), dtype=np.int64)


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------


def norm_inf(A) -> float:
    """Infinity norm (max absolute row sum) of a sparse or dense matrix."""
    if isinstance(A, SparseMatrix):
        sums = np.zeros(A.n_rows)
        np.add.at(sums, A.indices, np.abs(A.data))
        return float(sums.max()) if A.n_rows else 0.0
    return float(np.abs(np.asarray(A)).sum(axis=1).max())


def measure_errors(A, b, x, x_ref=None):
    """Normwise forward error and backward error of a candidate solution.

    The forward error is measured against a double-double reference solve
    (pass ``x_ref`` to reuse one); the backward-error residual is
    accumulated in double-double as well.
    """
    if x_ref is None:
        x_ref = dd_solve(A, b)
    xh, xl = x_ref
    diff = (xh - np.asarray(x, dtype=np.float64)) + xl
    denom = float(np.max(np.abs(xh + xl)))
    if denom == 0.0:
        raise ValueError("reference solution is zero; forward error undefined")
    ferr = float(np.max(np.abs(diff))) / denom
    r = dd_residual(A, x, b)
    nbe_den = float(np.max(np.abs(b))) + norm_inf(A) * float(np.max(np.abs(x)))
    nbe = float(np.max(np.abs(r))) / nbe_den if nbe_den else 0.0
    return ferr, nbe


# ---------------------------------------------------------------------------
# solver preparation and the refinement loop
# ---------------------------------------------------------------------------


@dataclass
class PreparedSolver:
    """Preconditioner/factors built once in ``uf`` and reused by the driver."""

    kind: str
    precond: object | None = None
    spai: SpaiPreconditioner | None = None
    lu_scaled: bool = False

    @property
    def precond_nnz(self) -> int:
        if self.kind == "spai":
            return self.spai.nnz
        if self.kind in ("lu", "sir"):
            return self.precond.nnz
        return 0


def prepare_solver(A: SparseMatrix, cfg: IrConfig) -> PreparedSolver:
    """Build the preconditioner or factors required by ``cfg.solver``."""
    if cfg.solver == "spai":
        if cfg.spai is None:
            raise ValueError("spai solver requires cfg.spai parameters")
        if cfg.spai.uf is not cfg.uf:
            raise ValueError("cfg.spai.uf must match cfg.uf")
        pre = build_left_preconditioner(A, cfg.spai)
        return PreparedSolver(kind="spai", precond=pre.P, spai=pre)
    if cfg.solver in ("lu", "sir"):
        perm = rcm_permutation(A)
        dense = A.to_dense()[np.ix_(perm, perm)]
        try:
            factors = dense_lu(dense, cfg.uf)
            lu = LuPreconditioner(factors)
            scaled = False
        except OverflowInFactorizationError:
            r, s, mu = equilibrate_two_sided(SparseMatrix.from_dense(dense), cfg.uf)
            hatA = round_array(mu * (dense * r[:, None]) * s[None, :], cfg.uf)
            factors = dense_lu(hatA, cfg.uf)
            lu = LuPreconditioner(factors, r=r, s=s, mu=mu)
            scaled = True
        return PreparedSolver(kind=cfg.solver, precond=_PermutedLu(lu, perm, A.n_rows), lu_scaled=scaled)
    return PreparedSolver(kind="none")


class _PermutedLu:
    """LU preconditioner conjugated with a symmetric fill-reducing ordering."""

    def __init__(self, lu: LuPreconditioner, perm: np.ndarray, n: int):
        self.lu = lu
        self.perm = perm
        self.inv_perm = np.empty(n, dtype=np.int64)
        self.inv_perm[perm] = np.arange(n)

    @property
    def nnz(self) -> int:
        return self.lu.nnz

    def apply(self, v: np.ndarray, p: Precision) -> np.ndarray:
        return self.lu.apply(np.asarray(v)[self.perm], p)[self.inv_perm]

    def apply_dense_exact(self, X: np.ndarray) -> np.ndarray:
        return self.lu.apply_dense_exact(np.asarray(X)[self.perm])[self.inv_perm]


def _residual(A: SparseMatrix, x: np.ndarray, b: np.ndarray, ur: Precision) -> np.ndarray:
    if ur is QUAD:
        return dd_residual(A, x, b)
    y = matvec(A, x, ur)
    return round_array(b - y, ur)


def run_ir(A: SparseMatrix, b: np.ndarray, cfg: IrConfig, solver: PreparedSolver | None = None,
           x_ref=None):
    """Iterative refinement of A x = b under ``cfg``; returns ``(x, IrReport)``.

    ``solver`` and ``x_ref`` allow reusing a prepared preconditioner and a
    double-double reference solution across runs on the same system.
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.n_rows
    if A.n_cols != n or b.shape[0] != n:
        raise ValueError("square system with matching right-hand side required")
    if solver is None:
        solver = prepare_solver(A, cfg)
    if x_ref is None:
        x_ref = dd_solve(A, b)

    # initial solution in uf, stored in u
    if solver.kind == "spai":
        x = matvec(solver.spai.P, round_array(b, cfg.uf), cfg.uf)
    elif solver.kind in ("lu", "sir"):
        x = solver.precond.apply(b, cfg.uf)
    else:
        x = np.zeros(n)
    x = round_array(x, cfg.u)

    ferr, nbe = measure_errors(A, b, x, x_ref=x_ref)
    ferr_hist = [ferr]
    nbe_hist = [nbe]
    iters_per_step: list[int] = []
    gmres_reports: list[GmresReport] = []
    u_val = cfg.u.unit_roundoff
    thresh_nbe = cfg.c_nbe * n * u_val
    thresh_ferr = cfg.c_ferr * n * u_val

    def converged_now(step_ratio: float | None) -> bool:
        if nbe_hist[-1] > thresh_nbe:
            return False
        if cfg.use_ferr:
            return ferr_hist[-1] <= thresh_ferr
        return step_ratio is not None and step_ratio <= u_val

    converged = converged_now(None if cfg.use_ferr else math.inf)
    stagnated = False
    steps = 0
    max_iters = cfg.gmres_max_iters if cfg.gmres_max_iters is not None else n
    gmres_cfg = GmresConfig(tau=cfg.tau, max_iters=max_iters, ug=cfg.gmres_ug, up=cfg.gmres_up)

    while not converged and steps < cfg.i_max:
        r = round_array(_residual(A, x, b, cfg.ur), cfg.u)
        if solver.kind == "sir":
            d = solver.precond.apply(r, cfg.uf)
            iters_per_step.append(0)
        else:
            P = solver.precond if solver.kind != "none" else None
            d, grep = pgmres_left(A, P, r, gmres_cfg)
            gmres_reports.append(grep)
            iters_per_step.append(grep.iters)
        d = round_array(d, cfg.u)
        x_new = round_array(x + d, cfg.u)
        step_ratio = (
            float(np.max(np.abs(d))) / float(np.max(np.abs(x_new)))
            if np.any(x_new)
            else math.inf
        )
        x = x_new
        steps += 1
        ferr, nbe = measure_errors(A, b, x, x_ref=x_ref)
        ferr_hist.append(ferr)
        nbe_hist.append(nbe)
        if converged_now(step_ratio):
            converged = True
            break
        watched = ferr_hist if cfg.use_ferr else nbe_hist
        if len(watched) >= 3:
            if watched[-1] > watched[-2] > watched[-3]:
                stagnated = True
                break
            if watched[-1] > 0.5 * watched[-3]:
                stagnated = True
                break

    report = IrReport(
        steps=steps,
        gmres_iters_per_step=iters_per_step,
        total_gmres_iters=int(sum(iters_per_step)),
        ferr_history=ferr_hist,
        nbe_history=nbe_hist,
        converged=converged,
        stagnated=stagnated,
        details={
            "solver": cfg.solver,
            "precond_nnz": solver.precond_nnz,
            "tau": cfg.tau,
            "precisions": {
                "uf": cfg.uf.name,
                "u": cfg.u.name,
                "ur": cfg.ur.name,
                "ug": cfg.gmres_ug.name,
                "up": cfg.gmres_up.name,
            },
            "gmres_capped": any(rep.iters >= max_iters and not rep.converged for rep in gmres_reports),
            "gmres_breakdown": any(rep.breakdown for rep in gmres_reports),
            "lu_scaled": solver.lu_scaled,
        },
    )
    if solver.kind == "spai":
        report.details["spai"] = solver.spai.stats_dict()
    return x, report
