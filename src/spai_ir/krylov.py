"""Left-preconditioned MGS-GMRES in a configurable working precision.

The Arnoldi process, inner products, Givens rotations, and the Hessenberg
least-squares solve all run in the GMRES working precision; the operator
and preconditioner are applied to vectors in a (possibly different)
application precision.  No restarting: each call runs full GMRES from a
zero initial guess, as used inside iterative refinement.

The GMRES state lives in the working precision's own numpy dtype (float16,
float32 or float64) and is computed on natively; each operation then
rounds once, with the bits of the emulated float64-then-round loop (see
:mod:`spai_ir.precision`).  Only the operator's float64 output is rounded
into that dtype, and the correction leaves as float64.  No Python float
meets a half or single scalar in arithmetic, where numpy 1.x would promote
the result to float64.

The modified Gram-Schmidt dots and the Arnoldi norms, most of the work,
go through one :class:`spai_ir.precision.PairwisePlan` per solve, which
reuses one buffer for ``fl_sum``'s tree; the basis update and the final
combination run in place through one scratch vector.  Each is still one
IEEE operation per entry, rounded once, so the bits do not change.

Numpy calls per Arnoldi step are kept few, and so is the Python work
around them.  Each MGS step against a basis vector is one call,
:meth:`~spai_ir.precision.PairwisePlan.mgs_step`, which forms the dot,
updates ``w`` in place and returns the coefficient, so the inner loop
makes one call per basis vector.  The basis is a list of vectors, so a
dot indexes no array.  Column j of the Hessenberg matrix is built in a
Python list: the MGS coefficients are collected, the earlier Givens
rotations, whose cosines and sines are lists too, are applied to them,
the rotated entry carried from one rotation to the next, and the column
is kept.  Only after the loop is the (k+1) x k ``H`` of the k iterations
run formed from these columns, once, for the least-squares solve; no
n x n array is allocated.  In double these scalars are Python floats,
whose operations are the binary64 operations of numpy's float64; in half
and single they stay numpy scalars of the working dtype, so every
operation still rounds to it.  The operations and their order are those
of a loop over the columns of ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# fl_op stays bound here although unused: perfbench/tracer.py wraps krylov.fl_op
from .precision import PairwisePlan, Precision, fl, fl_dot, fl_norm2, fl_op, quiet
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
    if not np.all(np.isfinite(y)):
        raise PrecisionOverflowSignal("overflow while applying preconditioned operator")
    return y


@quiet
def pgmres_left(A: SparseMatrix, P, r: np.ndarray, tau: float, ug: Precision, up: Precision):
    """Solve P A d = P r by MGS-GMRES; returns ``(d, GmresReport)``.

    ``ug`` is the working precision of the iteration and ``up`` the
    precision in which A and P are applied; the right-hand side is
    preconditioned in ``up``.  The iteration stops when the Givens residual
    estimate relative to the preconditioned right-hand side norm drops to
    ``tau`` (in (0, 1), as :class:`spai_ir.refine.IrConfig` checks), on a
    happy breakdown, or after n iterations: there is no cap below the
    problem size.  A basis norm that underflows to zero before the
    tolerance is met sets ``breakdown`` and returns the best iterate so far.
    The report reads both from the record: ``iters`` is the number of
    Hessenberg columns kept, and ``converged`` whether the last entry of
    ``relres_history``, the true residual after a happy breakdown, is at
    most ``tau``.
    Its memory follows the iterations run: the basis, and the (k+1) x k
    Hessenberg matrix of k iterations, formed once after the loop.

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
    beta = fl_norm2(z, ug)  # inf too if z overflowed ug
    if not np.isfinite(beta):
        raise _ug_overflow(ug)
    if beta == 0.0:
        return np.zeros(n), GmresReport(iters=0, relres_history=[0.0], breakdown=False, converged=True)

    # Python floats for double, scalars of dt otherwise (see the module docstring)
    scalar = float if ug.dtype is None else dt
    plan = PairwisePlan(n, ug)  # the Arnoldi dots and norms
    mgs_step = plan.mgs_step
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
    for c in range(k - 1, -1, -1):
        s = fl_dot(H[c, c + 1 : k], y[c + 1 : k], ug)
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
        relres_history[-1] = float(fl_norm2((z - q).astype(dt), ug)) / float(beta)
    converged = relres_history[-1] <= tau
    breakdown = breakdown or (verify_breakdown and not converged)

    report = GmresReport(iters=k, relres_history=relres_history, breakdown=breakdown, converged=converged)
    return d, report
