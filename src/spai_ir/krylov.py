"""Left-preconditioned MGS-GMRES in a configurable working precision.

The Arnoldi process, inner products, Givens rotations, and the Hessenberg
least-squares solve all run in the GMRES working precision; the operator
and preconditioner are applied to vectors in a (possibly different)
application precision.  No restarting: each call runs full GMRES from a
zero initial guess, as used inside iterative refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .precision import Precision, fl, fl_dot, fl_norm2, fl_op, quiet
from .sparse import SparseMatrix, matvec

__all__ = [
    "GmresConfig",
    "GmresReport",
    "PrecisionOverflowSignal",
    "apply_precond_matvec",
    "pgmres_left",
]


class PrecisionOverflowSignal(ArithmeticError):
    """An operator application produced non-finite values in low precision."""


@dataclass(frozen=True)
class GmresConfig:
    """Stopping tolerance, iteration cap, and the two precisions.

    ``tau`` is compared against the Givens-updated estimate of the
    preconditioned relative residual.  ``max_iters`` may not exceed the
    problem size.
    """

    tau: float
    max_iters: int
    ug: Precision
    up: Precision
    collect_diagnostics: bool = False

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie strictly between 0 and 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class GmresReport:
    """Iteration count, estimate history, and breakdown flag for one solve."""

    iters: int
    relres_history: list[float]
    breakdown: bool
    converged: bool
    ortho_defect: float | None = None


def _apply_p(P, v: np.ndarray, up: Precision) -> np.ndarray:
    if P is None:
        return fl(v, up)
    if isinstance(P, SparseMatrix):
        return matvec(P, v, up)
    return P.apply(v, up)


def apply_precond_matvec(A: SparseMatrix, P, v: np.ndarray, up: Precision) -> np.ndarray:
    """y = P (A v) with both products carried out in the application precision.

    ``P`` may be a :class:`SparseMatrix`, ``None`` (identity), or any object
    with an ``apply(vector, precision)`` method (such as an LU-factor
    preconditioner).  Non-finite output raises
    :class:`PrecisionOverflowSignal`.
    """
    w = matvec(A, v, up)
    y = _apply_p(P, w, up)
    if not np.all(np.isfinite(y)):
        raise PrecisionOverflowSignal("overflow while applying preconditioned operator")
    return y


@quiet
def pgmres_left(A: SparseMatrix, P, r: np.ndarray, cfg: GmresConfig):
    """Solve P A d = P r by MGS-GMRES; returns ``(d, GmresReport)``.

    The right-hand side is preconditioned in the application precision; the
    iteration stops when the Givens residual estimate relative to the
    preconditioned right-hand side norm drops to ``tau``, on a happy
    breakdown, or at ``max_iters``.  A basis norm that underflows to zero
    before the tolerance is met sets ``breakdown`` and returns the best
    iterate so far.
    """
    n = A.n_rows
    if cfg.max_iters > n:
        raise ValueError("max_iters may not exceed the problem dimension")
    r = np.asarray(r, dtype=np.float64)
    z = _apply_p(P, r, cfg.up)
    if not np.all(np.isfinite(z)):
        raise PrecisionOverflowSignal("overflow while preconditioning the right-hand side")
    z = fl(z, cfg.ug)
    beta = fl_norm2(z, cfg.ug)
    if beta == 0.0:
        return np.zeros(n), GmresReport(iters=0, relres_history=[0.0], breakdown=False, converged=True)

    m = cfg.max_iters
    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[:, 0] = fl(z / beta, cfg.ug)
    relres_history = [1.0]
    breakdown = False
    converged = False
    verify_breakdown = False
    k = 0

    for j in range(m):
        w = apply_precond_matvec(A, P, V[:, j], cfg.up)
        w = fl(w, cfg.ug)
        for i in range(j + 1):
            hij = fl_dot(V[:, i], w, cfg.ug)
            H[i, j] = hij
            w = fl(w - fl(hij * V[:, i], cfg.ug), cfg.ug)
        hnext = fl_norm2(w, cfg.ug)
        H[j + 1, j] = hnext

        for i in range(j):
            t1 = fl_op("add", fl_op("mul", cs[i], H[i, j], p=cfg.ug), fl_op("mul", sn[i], H[i + 1, j], p=cfg.ug), p=cfg.ug)
            t2 = fl_op("sub", fl_op("mul", cs[i], H[i + 1, j], p=cfg.ug), fl_op("mul", sn[i], H[i, j], p=cfg.ug), p=cfg.ug)
            H[i, j], H[i + 1, j] = t1, t2
        denom = fl_op(
            "sqrt",
            fl_op("add", fl_op("mul", H[j, j], H[j, j], p=cfg.ug), fl_op("mul", hnext, hnext, p=cfg.ug), p=cfg.ug),
            p=cfg.ug,
        )
        if denom == 0.0:
            breakdown = True
            break
        cs[j] = fl_op("div", H[j, j], denom, p=cfg.ug)
        sn[j] = fl_op("div", hnext, denom, p=cfg.ug)
        H[j, j] = denom
        H[j + 1, j] = 0.0
        g[j + 1] = fl_op("mul", -sn[j], g[j], p=cfg.ug)
        g[j] = fl_op("mul", cs[j], g[j], p=cfg.ug)

        k = j + 1
        relres = abs(g[j + 1]) / beta
        relres_history.append(float(relres))
        if hnext == 0.0:
            # basis cannot be extended; the Givens estimate reads zero here
            # whether this is a genuine happy breakdown or an underflow, so
            # the true preconditioned residual is checked after the solve
            verify_breakdown = True
            break
        V[:, j + 1] = fl(w / hnext, cfg.ug)
        if relres <= cfg.tau:
            converged = True
            break

    # Hessenberg least squares in the GMRES working precision
    y = np.zeros(k)
    for c in range(k - 1, -1, -1):
        s = fl_dot(H[c, c + 1 : k], y[c + 1 : k], cfg.ug) if c + 1 < k else 0.0
        y[c] = fl_op("div", fl_op("sub", g[c], s, p=cfg.ug), H[c, c], p=cfg.ug)
    d = np.zeros(n)
    for c in range(k):
        d = fl(d + fl(y[c] * V[:, c], cfg.ug), cfg.ug)

    if verify_breakdown:
        q = apply_precond_matvec(A, P, d, cfg.up)
        true_rel = fl_norm2(fl(z - q, cfg.ug), cfg.ug) / beta
        relres_history[-1] = float(true_rel)
        if true_rel <= cfg.tau:
            converged = True
        else:
            breakdown = True

    report = GmresReport(iters=k, relres_history=relres_history, breakdown=breakdown, converged=converged)
    if cfg.collect_diagnostics and k:
        # the (k+1)-th basis vector exists only when the loop extended it
        cols = k if (breakdown or verify_breakdown) else k + 1
        Vk = V[:, :cols]
        gram = Vk.T @ Vk
        report.ortho_defect = float(np.linalg.norm(gram - np.eye(gram.shape[0]), "fro"))
    return d, report
