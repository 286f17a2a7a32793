"""Checks of the program's outputs made apart from the program.

Nothing here calls ``spai_ir``: residuals are evaluated exactly with
``fractions.Fraction``, preconditioner quality with ``scipy.sparse`` in
double, and forward errors against ``scipy.sparse.linalg.spsolve``.  Each
check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import spsolve


class CheckFailed(AssertionError):
    """An output of the program did not pass an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def exact_backward_error(A: sp.csr_matrix, x, b) -> float:
    """Normwise backward error max|b - A x| / (max|b| + |A|_inf max|x|).

    The residual is evaluated exactly in rational arithmetic; the norms in
    the denominator are plain doubles.  ``x`` is a double vector or a
    ``(hi, lo)`` pair whose exact sum is the solution.
    """
    if isinstance(x, tuple):
        xs = [Fraction(float(h)) + Fraction(float(lo)) for h, lo in zip(*x)]
    else:
        xs = [Fraction(float(v)) for v in x]
    A = sp.csr_matrix(A)
    vals = [Fraction(float(v)) for v in A.data]
    indptr, indices = A.indptr.tolist(), A.indices.tolist()
    rmax = Fraction(0)
    for i, bi in enumerate(np.asarray(b, dtype=np.float64).tolist()):
        r = Fraction(bi)
        for k in range(indptr[i], indptr[i + 1]):
            r -= vals[k] * xs[indices[k]]
        rmax = max(rmax, abs(r))
    norm_a = float(np.max(np.abs(A).sum(axis=1)))
    den = float(np.max(np.abs(b))) + norm_a * float(max(abs(v) for v in xs))
    return float(rmax) / den


def check_solution(A: sp.csr_matrix, b, x, u: float, x_true=None) -> dict:
    """A refined solution must meet the working-precision accuracy n*u.

    The backward error comes from the exactly evaluated residual; when
    ``x_true`` (an independent double solution) is given, the normwise
    forward error against it must also be at most n*u.
    """
    n = A.shape[0]
    x = np.asarray(x, dtype=np.float64)
    require(x.shape == (n,) and bool(np.all(np.isfinite(x))), "solution is not a finite n-vector")
    nbe = exact_backward_error(A, x, b)
    require(nbe <= n * u, f"backward error {nbe:.3e} > n*u = {n * u:.3e}")
    out = {"nbe": nbe}
    if x_true is not None:
        ferr = float(np.max(np.abs(x_true - x)) / np.max(np.abs(x_true)))
        require(ferr <= n * u, f"forward error {ferr:.3e} > n*u = {n * u:.3e}")
        out["ferr"] = ferr
    return out


def check_reference(A: sp.csr_matrix, b, x_pair) -> float:
    """A double-double reference solution must have backward error <= n * 2^-106."""
    n = A.shape[0]
    nbe = exact_backward_error(A, x_pair, b)
    require(nbe <= n * 2.0**-106, f"reference backward error {nbe:.3e} > n*2^-106")
    return nbe


def independent_solution(A: sp.csr_matrix, b) -> np.ndarray:
    """Double-precision sparse direct solution, for forward-error checks."""
    return np.asarray(spsolve(sp.csc_matrix(A), np.asarray(b, dtype=np.float64)), dtype=np.float64)


def csc_from_arrays(n: int, indptr, indices, data) -> sp.csc_matrix:
    """A scipy matrix over compressed-column arrays, copied."""
    return sp.csc_matrix((np.array(data, dtype=np.float64), np.array(indices), np.array(indptr)), shape=(n, n))


def check_preconditioner(A: sp.csr_matrix, P: sp.csc_matrix, eps: float) -> float:
    """|I - P A|_inf <= 2 n eps, recomputed in double; returns the norm."""
    n = A.shape[0]
    require(bool(np.all(np.isfinite(P.data))), "preconditioner has non-finite entries")
    R = sp.identity(n, format="csr") - sp.csr_matrix(P) @ sp.csr_matrix(A)
    norm = float(np.max(np.abs(R).sum(axis=1))) if n else 0.0
    require(norm <= 2.0 * n * eps, f"|I - P A|_inf = {norm:.3e} > 2 n eps = {2.0 * n * eps:.3e}")
    return norm
