"""Left-preconditioned MGS-GMRES from a zero initial guess, with no restart.

The Arnoldi process, inner products, Givens rotations and the Hessenberg
least-squares solve run in the working precision ``ug``; the operator and
preconditioner are applied in ``up``.  The state lives in ``ug``'s own
numpy dtype and is computed on natively, each operation rounding once,
with the bits of the emulated loop (see :mod:`spai_ir.precision`): only
the operator's float64 output is rounded into that dtype, and the
correction leaves as float64.  Scalars are Python floats in double, whose
operations are binary64's, and numpy scalars of the dtype in half and
single, since numpy 1.x promotes a Python float met in arithmetic to
float64.  The Hessenberg columns are built in Python lists and H is formed
once after the loop, with the operations and order of a loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fl_dot and fl_op stay bound here although unused: perfbench/tracer.py wraps krylov.fl_dot and krylov.fl_op
from .precision import PairwisePlan, Precision, fl, fl_dot, fl_op, quiet
from .sparse import SparseMatrix, matvec

__all__ = [
    "GmresReport",
    "PrecisionOverflowSignal",
    "apply_precond_matvec",
    "pgmres_left",
]


class PrecisionOverflowSignal(ArithmeticError):
    """An operator application, or GMRES itself, produced non-finite values
    in low precision; the message names the precision."""


def _ug_overflow(ug: Precision) -> PrecisionOverflowSignal:
    return PrecisionOverflowSignal(f"overflow in the GMRES working precision ({ug.name})")


@dataclass
class GmresReport:
    """Iteration count, estimate history, and breakdown flag for one solve."""

    iters: int
    relres_history: list[float]
    breakdown: bool
    converged: bool


def _apply_p(P, v: np.ndarray, up: Precision) -> np.ndarray:
    return fl(v, up) if P is None else P.apply(v, up)


def apply_precond_matvec(A: SparseMatrix, P, v: np.ndarray, up: Precision) -> np.ndarray:
    """y = P (A v) with both products carried out in the application precision.

    ``P`` is ``None`` (identity) or a preconditioner: any object with an
    ``apply(vector, precision)`` method, such as what ``prepare_solver``
    returns.  Non-finite output raises :class:`PrecisionOverflowSignal`.
    """
    w = matvec(A, v, up)
    y = _apply_p(P, w, up)
    if not np.isfinite(y).all():
        raise PrecisionOverflowSignal("overflow while applying preconditioned operator")
    return y


@quiet
def pgmres_left(A: SparseMatrix, P, r: np.ndarray, tau: float, ug: Precision, up: Precision):
    """Solve P A d = P r by MGS-GMRES; returns ``(d, GmresReport)``.

    The right-hand side is preconditioned in ``up``.  The iteration stops
    when the Givens residual estimate relative to the preconditioned
    right-hand side norm reaches ``tau`` (in (0, 1)), on a happy breakdown,
    or after n iterations.  ``iters`` counts the Hessenberg columns kept;
    ``converged`` says whether the last entry of ``relres_history``, the
    true residual after a happy breakdown, is at most ``tau``, and a basis
    norm that underflows to zero short of it sets ``breakdown``.  Memory
    follows the iterations run: no n x n array is made.

    :class:`PrecisionOverflowSignal` is raised as soon as a value leaves the
    range of a precision: the operator's output in ``up``, or in ``ug`` the
    rounded right-hand side or its norm, an Arnoldi norm, a Givens
    denominator, or the correction.
    """
    n = A.n_rows
    dt = ug.dtype or np.float64
    r = np.asarray(r, dtype=np.float64)
    z = _apply_p(P, r, up)
    if not np.all(np.isfinite(z)):
        raise PrecisionOverflowSignal("overflow while preconditioning the right-hand side")
    z = z.astype(dt)
    plan = PairwisePlan(n, ug)  # every dot and norm of length n
    mgs_step = plan.mgs_step
    beta = plan.norm2(z)  # inf too if z overflowed ug
    if not np.isfinite(beta):
        raise _ug_overflow(ug)
    if beta == 0.0:
        return np.zeros(n), GmresReport(iters=0, relres_history=[0.0], breakdown=False, converged=True)

    # Python floats for double, scalars of dt otherwise (see the module docstring)
    scalar = float if ug.dtype is None else dt
    t = np.empty(n, dt)  # scratch for a rounded product
    cs, sn, hcols = [], [], []  # the Givens rotations, and the rotated columns of H
    g = np.zeros(n + 1, dt)
    g[0] = beta
    basis = [z / beta]
    relres_history = [1.0]
    breakdown = False
    verify_breakdown = False

    for j in range(n):
        w = apply_precond_matvec(A, P, basis[j], up).astype(dt)
        hs = [mgs_step(v, w, t) for v in basis]  # the MGS coefficients of column j of H
        hnext = scalar(plan.norm2(w))
        if not np.isfinite(hnext):
            raise _ug_overflow(ug)

        col, hjj = [], hs[0]  # column j of H; hjj carries entry i through rotation i
        for c, s, b in zip(cs, sn, hs[1:]):
            col.append(c * hjj + s * b)
            hjj = c * b - s * hjj
        denom = scalar(np.sqrt(hjj * hjj + hnext * hnext))
        if not np.isfinite(denom):
            # cs = sn = 0 would read as a zero residual estimate
            raise _ug_overflow(ug)
        if denom == 0.0:
            breakdown = True
            break
        cs.append(hjj / denom)
        sn.append(hnext / denom)
        col += (denom, 0.0)
        hcols.append(col)
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        # the stopping estimate is a double quotient, not a ug operation
        relres = float(abs(g[j + 1])) / float(beta)
        relres_history.append(relres)
        if hnext == 0.0:
            # basis cannot be extended; the Givens estimate reads zero here
            # whether this is a genuine happy breakdown or an underflow, so
            # the true preconditioned residual is checked after the solve
            verify_breakdown = True
            break
        w /= hnext
        basis.append(w)
        if relres <= tau:
            break

    # Hessenberg least squares in the GMRES working precision
    k = len(hcols)
    H = np.zeros((k + 1, k), dt)
    for j, col in enumerate(hcols):
        H[: j + 2, j] = col
    y = np.zeros(k, dt)
    hplan = PairwisePlan(k, ug)  # the dots of the back substitution, of k - 1 terms at most
    for c in range(k - 1, -1, -1):
        s = hplan.dot(H[c, c + 1 : k], y[c + 1 : k])
        y[c] = (g[c] - s) / H[c, c]
    d = np.zeros(n, dt)
    for c in range(k):
        np.add(d, np.multiply(y[c], basis[c], out=t), out=d)
    if not np.all(np.isfinite(d)):
        raise _ug_overflow(ug)
    d = d.astype(np.float64)

    if verify_breakdown:
        q = apply_precond_matvec(A, P, d, up)
        # the difference is exact in float64, then rounded once to ug
        relres_history[-1] = float(plan.norm2((z - q).astype(dt))) / float(beta)
    converged = relres_history[-1] <= tau
    breakdown = breakdown or (verify_breakdown and not converged)

    report = GmresReport(iters=k, relres_history=relres_history, breakdown=breakdown, converged=converged)
    return d, report
