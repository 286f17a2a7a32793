"""Mixed-precision iterative refinement with interchangeable correction solvers.

After an initial solve in the factorization precision, each step forms the
residual in the residual precision, solves for a correction (preconditioned
GMRES or triangular solves) and updates in the working precision, until the
one stopping rule of :class:`IrConfig` holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from numbers import Integral

import numpy as np

# fl_op stays bound here although unused: perfbench/tracer.py wraps refine.fl_op
from .precision import (
    QUAD,
    DenseLu,
    Precision,
    PrecisionOverflowSignal,
    check_matrix,
    dd_residual,
    dd_solve,
    dense_lu,
    fl,
    fl_op,
    overflow,
    quiet,
    require_vector,
)
from .krylov import pgmres_left, precondition
from .spai import SpaiParams, SpaiPreconditioner, build_left_preconditioner
from .sparse import SparseMatrix, matvec, owners

__all__ = [
    "IrConfig",
    "IrReport",
    "LuPreconditioner",
    "rcm_permutation",
    "measure_errors",
    "norm_inf",
    "run_ir",
    "prepare_solver",
]

SOLVERS = ("spai", "lu", "none", "sir")


@dataclass(frozen=True)
class IrConfig:
    """Precisions, tolerances, and solver selection for one refinement run.

    ``uf`` is the factorization/construction precision, ``u`` the working
    precision, ``ur`` the residual precision, ``ug``/``up`` the GMRES
    working and application precisions (``u`` where left ``None``), and
    ``tau`` the GMRES tolerance, which must lie in (0, 1); left ``None`` it
    follows the working precision: 1e-4 when the unit roundoff of ``u`` is
    above 2**-30 (half, single), else 1e-8.  The ``spai``
    solver needs ``spai`` parameters built in ``uf``.  Every setting is
    checked here, before any preconditioner is built.  There is one
    stopping rule: the run converges when both the normwise backward
    error and the forward error are at most ``n * u``, and stagnates when the
    forward error rises twice in a row or falls by less than half over two
    steps.
    """

    uf: Precision
    u: Precision
    ur: Precision
    solver: str = "spai"
    tau: float | None = None
    i_max: int = 10
    ug: Precision | None = None
    up: Precision | None = None
    spai: SpaiParams | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        if self.tau is None:
            object.__setattr__(self, "tau", 1e-4 if self.u.unit_roundoff > 2.0**-30 else 1e-8)
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie strictly between 0 and 1")
        if isinstance(self.i_max, bool) or not isinstance(self.i_max, Integral):
            raise ValueError(f"i_max must be an integer, got {self.i_max!r}")
        if self.i_max < 1:
            raise ValueError("i_max must be at least 1")
        if self.solver == "spai":
            if self.spai is None:
                raise ValueError("spai solver requires cfg.spai parameters")
            if self.spai.uf is not self.uf:
                raise ValueError("cfg.spai.uf must match cfg.uf")
        for name in ("ug", "up"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.u)
        # quad-emulated has no storage format: only the residual is computed in it
        for name in ("uf", "u", "ug", "up"):
            if getattr(self, name) == QUAD:
                raise ValueError(f"quad-emulated is a residual precision only; {name} cannot be quad")


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
        return asdict(self)


# ---------------------------------------------------------------------------
# dense LU preconditioner
# ---------------------------------------------------------------------------


@quiet
def equilibrate_two_sided(A: SparseMatrix, uf: Precision):
    """Diagonals (r, s) and a scalar mu such that mu R A S has magnitudes
    at most ``0.1 * max_finite(uf)``: the retry after a low-precision
    factorization overflows.  A row or column whose scale is infinite (no
    entry, or none above about 1 / ``max_finite(double)``) would make the
    factors inf or NaN, and raises the factorization's error, ``overflow
    in the factorization in <uf>``.
    """
    rows, mag = A.indices, np.abs(A.data)
    rowmax = np.zeros(A.n_rows)
    np.maximum.at(rowmax, rows, mag)
    r = 1.0 / rowmax
    colmax = np.zeros(A.n_cols)
    np.maximum.at(colmax, owners(A.indptr), mag * r[rows])
    s = 1.0 / colmax
    if np.isinf(r).any() or np.isinf(s).any():
        raise overflow(uf, "the factorization")
    mu = 0.1 * uf.max_finite
    return r, s, mu


def _scaled(A: SparseMatrix, r: np.ndarray, s: np.ndarray, mu: float) -> SparseMatrix:
    """mu R A S with each entry's three products rounded in turn, a r, then
    mu, then s, as the dense product computes it."""
    return SparseMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * r[A.indices] * mu).scale_columns(s)


class LuPreconditioner:
    """Applies (an approximation of) the inverse via stored LU factors.

    The factors are those of mu * R B S, where B = A[order][:, order] is a
    symmetric reordering of A and the optional two-sided scaling (r, s)
    acts in the reordered coordinates.  Applying the preconditioner to v
    computes S (LU)^-1 (mu R v[order]), the factors applying their own row
    interchanges, and returns it in the original order, every elementary
    operation rounded to the requested precision.
    """

    def __init__(self, factors: DenseLu, order: np.ndarray, r=None, s=None, mu: float = 1.0):
        self.factors = factors
        self.order = np.asarray(order)
        self.inv_order = np.empty(len(order), dtype=np.int64)
        self.inv_order[order] = np.arange(len(order))
        self.r = r
        self.s = s
        self.mu = mu

    @property
    def nnz(self) -> int:
        return self.factors.nnz_lu

    @quiet
    def apply(self, v: np.ndarray, p: Precision) -> np.ndarray:
        n = len(self.order)
        x = fl(np.asarray(require_vector(v, n, (n, n), "v"), dtype=np.float64)[self.order], p)
        if self.r is not None:
            x = fl(fl(self.mu * x, p) * self.r, p)
        x = self.factors.substitute(x, p)
        if self.s is not None:
            x = fl(x * self.s, p)
        return x[self.inv_order]

    def apply_exact(self, A: SparseMatrix) -> np.ndarray:
        """The dense product of the preconditioner and ``A`` in plain double
        (diagnostics), in Fortran order.  ``A`` is densified once in the
        factored order, and every later step works in place on that array,
        beside only the float64 band of :meth:`DenseLu.solve`."""
        Y = A.to_dense(rows=self.order, order="F")
        if self.r is not None:
            Y *= self.mu
            Y *= self.r[:, None]
        Y = self.factors.solve(Y)
        if self.s is not None:
            Y *= self.s[:, None]
        for c in range(0, Y.shape[1], 64):
            Y[:, c : c + 64] = Y[self.inv_order, c : c + 64]
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
    """Infinity norm (max absolute row sum) of a sparse or dense matrix.  A
    dense one goes to :func:`scipy.linalg.norm`, which takes LAPACK's
    ``dlange`` for C or Fortran order and makes no n x n temporary."""
    if isinstance(A, SparseMatrix):
        sums = np.zeros(A.n_rows)
        np.add.at(sums, A.indices, np.abs(A.data))
        return float(sums.max()) if A.n_rows else 0.0
    from scipy.linalg import norm

    return float(norm(np.asarray(A, dtype=np.float64), np.inf, check_finite=False))


def measure_errors(A, b, x, x_ref, r=None):
    """``(ferr, nbe)`` of a candidate solution ``x``: the normwise forward
    error max|x_ref - x| / max|x_ref| against the double-double ``x_ref`` =
    ``(hi, lo)`` that ``dd_solve`` returns, and the normwise backward error
    max|r| / (max|b| + |A|_inf max|x|), where ``r`` is ``dd_residual(A, x,
    b)``, computed here unless the caller passes it.
    """
    xh, xl = x_ref
    diff = (xh - np.asarray(x, dtype=np.float64)) + xl
    denom = float(np.max(np.abs(xh + xl)))
    if denom == 0.0:
        raise ValueError("reference solution is zero; forward error undefined")
    ferr = float(np.max(np.abs(diff))) / denom
    if r is None:
        r = dd_residual(A, x, b)
    nbe_den = float(np.max(np.abs(b))) + norm_inf(A) * float(np.max(np.abs(x)))
    nbe = float(np.max(np.abs(r))) / nbe_den if nbe_den else 0.0
    return ferr, nbe


# ---------------------------------------------------------------------------
# solver preparation and the refinement loop
# ---------------------------------------------------------------------------


@quiet
def prepare_solver(A: SparseMatrix, cfg: IrConfig) -> SpaiPreconditioner | LuPreconditioner | None:
    """The preconditioner ``cfg.solver`` refines with, built in ``cfg.uf``:
    a :class:`SpaiPreconditioner` (spai), a :class:`LuPreconditioner` (lu,
    sir) or ``None``, the identity (none).

    ``A`` passes :func:`check_matrix` first, for every solver, before any
    ordering, factorization or build.  An LU whose factors overflow is
    retried once on the equilibrated matrix (:func:`equilibrate_two_sided`).
    """
    check_matrix(A)
    if cfg.solver == "spai":
        return build_left_preconditioner(A, cfg.spai)
    if cfg.solver in ("lu", "sir"):
        order = rcm_permutation(A)
        B = A.permuted(order)
        try:
            return LuPreconditioner(dense_lu(B, cfg.uf), order)
        except PrecisionOverflowSignal:
            r, s, mu = equilibrate_two_sided(B, cfg.uf)
            return LuPreconditioner(dense_lu(_scaled(B, r, s, mu), cfg.uf), order, r=r, s=s, mu=mu)
    return None


@quiet
def run_ir(A: SparseMatrix, b: np.ndarray, cfg: IrConfig,
           solver: SpaiPreconditioner | LuPreconditioner | None = None, x_ref=None):
    """Iterative refinement of A x = b under ``cfg``; returns ``(x, IrReport)``.

    ``solver`` is what :func:`prepare_solver` returns for ``cfg`` (left
    ``None``, it is prepared here) and ``x_ref`` a double-double reference
    solution; both can be reused across runs on the same system.  The
    system passes :func:`check_matrix` first.

    A step that leaves its precision's range raises
    :class:`~spai_ir.precision.PrecisionOverflowSignal`, never a stagnated
    report: the initial solve (``cfg.uf``, then stored in ``cfg.u``),
    ``sir``'s correction solve (``cfg.uf``), GMRES (:func:`pgmres_left`)
    and the update (``cfg.u``), e.g. ``overflow in the update in half``.
    """
    b = np.asarray(b, dtype=np.float64)
    check_matrix(A, b)
    n = A.n_rows
    if solver is None:
        solver = prepare_solver(A, cfg)
    if x_ref is None:
        x_ref = dd_solve(A, b)

    # initial solution in uf, stored in u: the second rounding overflows only where u is narrower than uf
    x = np.zeros(n) if solver is None else precondition(
        None, precondition(solver, fl(b, cfg.uf), cfg.uf, "the initial solve"), cfg.u, "the initial solve")

    ferr_hist: list[float] = []
    nbe_hist: list[float] = []
    iters_per_step: list[int] = []
    thresh = n * cfg.u.unit_roundoff
    capped = breakdown = False
    while True:
        # with ur = quad, the step's residual is the one the backward error is measured from
        r = dd_residual(A, x, b) if cfg.ur is QUAD else None
        ferr, nbe = measure_errors(A, b, x, x_ref=x_ref, r=r)
        ferr_hist.append(ferr)
        nbe_hist.append(nbe)
        converged = nbe <= thresh and ferr <= thresh
        # a forward error that rose twice in a row also fell by less than half
        stagnated = not converged and len(ferr_hist) >= 3 and ferr > 0.5 * ferr_hist[-3]
        if converged or stagnated or len(iters_per_step) >= cfg.i_max:
            break
        if r is None:
            r = fl(b - matvec(A, x, cfg.ur), cfg.ur)
        r = fl(r, cfg.u)
        if cfg.solver == "sir":
            d = precondition(solver, r, cfg.uf, "the correction solve")
            iters_per_step.append(0)
        else:
            d, grep = pgmres_left(A, solver, r, cfg.tau, cfg.ug, cfg.up)
            iters_per_step.append(grep.iters)
            capped = capped or (grep.iters >= n and not grep.converged)
            breakdown = breakdown or grep.breakdown
        x = fl(x + fl(d, cfg.u), cfg.u)
        if not np.isfinite(x).all():
            raise overflow(cfg.u, "the update")

    report = IrReport(
        steps=len(iters_per_step),
        gmres_iters_per_step=iters_per_step,
        total_gmres_iters=int(sum(iters_per_step)),
        ferr_history=ferr_hist,
        nbe_history=nbe_hist,
        converged=converged,
        stagnated=stagnated,
        details={
            "solver": cfg.solver,
            "precond_nnz": solver.nnz if solver is not None else 0,
            "tau": cfg.tau,
            "precisions": {
                "uf": cfg.uf.name,
                "u": cfg.u.name,
                "ur": cfg.ur.name,
                "ug": cfg.ug.name,
                "up": cfg.up.name,
            },
            "gmres_capped": capped,
            "gmres_breakdown": breakdown,
            "lu_scaled": isinstance(solver, LuPreconditioner) and solver.r is not None,
        },
    )
    if isinstance(solver, SpaiPreconditioner):
        report.details["spai"] = solver.stats_dict()
    return x, report
