"""Dense condition-number kernels and checks of the preconditioner
quality bounds (residual-based distance to the inverse, conditioning of
the preconditioned operator versus its closed-form estimate, and the
feasibility constraint linking build precision to the column tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precision import Precision, SingularMatrixError, quiet, require_square
from .refine import norm_inf
from .spai import SpaiPreconditioner
from .sparse import SparseMatrix

__all__ = [
    "BoundReport",
    "BoundViolationError",
    "kappa_inf",
    "cond2_transpose",
    "kappa_inf_product",
    "feasible",
    "kappa_estimate",
    "check_bounds",
]


class BoundViolationError(AssertionError):
    """A guaranteed preconditioner quality bound failed to hold."""


def _dense(A) -> np.ndarray:
    """A new dense float64 copy of the sparse or dense ``A``, the caller's to overwrite."""
    return A.to_dense() if isinstance(A, SparseMatrix) else np.array(A, dtype=np.float64)


def _inv(A: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The inverse of a dense float64 matrix by LAPACK's ``dgetrf`` and
    ``dgetri``, in the memory order of ``A``; ``ValueError`` if it is not
    square, :class:`SingularMatrixError` if it is exactly singular.  With
    ``overwrite`` it takes the memory of an ``A`` in C or Fortran order,
    else ``A`` is not changed.  A C-ordered A reaches LAPACK as A^T, whose
    inverse, transposed, is inv(A) in C order."""
    from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork

    require_square(A.shape)
    at = A.T if A.flags.c_contiguous else A
    lu, piv, info = dgetrf(at, overwrite_a=overwrite)
    if info > 0:
        raise SingularMatrixError("singular in the dense inverse in double")
    inv = dgetri(lu, piv, lwork=int(dgetri_lwork(len(piv))[0]), overwrite_lu=1)[0]
    return inv.T if at is not A else inv


def _kappa(Ad: np.ndarray) -> float:
    """:func:`kappa_inf` of the dense float64 ``Ad``, whose memory its
    inverse takes: the norm of ``Ad`` is taken before the inverse is made
    in place on it, so it holds no n x n array beside ``Ad``."""
    norm = norm_inf(Ad)
    return norm * norm_inf(_inv(Ad, overwrite=True))


def kappa_inf(A) -> float:
    """Infinity-norm condition number via a dense inverse (desk scale),
    made in place on a dense copy of ``A``, which is not changed."""
    return _kappa(_dense(A))


def _two_norm_power(X: np.ndarray) -> float:
    """Largest singular value of X by power iteration on X^T X.

    Deterministic start vector; iterates until the estimate stabilizes to
    roughly three digits (relative change 1e-4), or for 500 steps.  Each
    step multiplies by X^T once and by X once: the product X v whose norm
    is the estimate is the next step's X v.
    """
    n = X.shape[1]
    w = X @ (np.ones(n) / np.sqrt(n))
    sigma = 0.0
    for _ in range(500):
        v = X.T @ w
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return 0.0
        v /= norm
        w = X @ v
        sigma_new = float(np.linalg.norm(w))
        if sigma_new > 0 and abs(sigma_new - sigma) <= 1e-4 * sigma_new:
            return sigma_new
        sigma = sigma_new
    return sigma


@quiet
def _cond2_transpose(Ad: np.ndarray, invA: np.ndarray) -> float:
    """The power iteration on X = |inv(A^T)| |A^T| divided by 2**e, the
    power of two above its largest entry, its estimate multiplied back, so
    a finite X whose X^T X would overflow still gets its norm.  The scaling
    is exact, so the bits are those of the unscaled iteration wherever that
    stays in range.  An inf or NaN in X, or an estimate that overflows when
    multiplied back, gives inf."""
    X = np.abs(invA.T) @ np.abs(Ad.T)
    if not np.isfinite(X).all():
        return math.inf
    e = math.frexp(X.max())[1]  # 0 for a zero X, which is left as it is
    sigma = _two_norm_power(np.ldexp(X, -e, out=X))
    return float(np.ldexp(sigma, e))


def cond2_transpose(A) -> float:
    """2-norm condition measure |inv(A^T)| |A^T| of the transposed system."""
    Ad = _dense(A)
    return _cond2_transpose(Ad, _inv(Ad))


def kappa_inf_product(P, A: SparseMatrix) -> float:
    """Infinity-norm condition number of P A; any preconditioner ``P`` (sparse
    or LU factors) forms the dense product in plain double by ``apply_exact``,
    which the inverse then overwrites."""
    return _kappa(P.apply_exact(A))


def feasible(uf: Precision, cond2_at: float, eps: float) -> bool:
    """The paper's feasibility constraint u_f cond2(A^T) <= eps on a build."""
    return bool(uf.unit_roundoff * cond2_at <= eps)


def kappa_estimate(n: int, eps: float) -> float:
    """Closed-form estimate (1 + 2 n eps)^2 of kappa(PA) when every column meets ``eps``."""
    return (1.0 + 2.0 * n * eps) ** 2


@dataclass
class BoundReport:
    """Measured preconditioner quality against its guaranteed bounds.

    ``norm_I_minus_PA`` and ``dist_to_inverse`` are hard-bounded by
    ``bound_2n_eps`` and ``dist_bound`` whenever every column met its
    tolerance; ``kappa_tilde`` versus ``estimate`` is recorded only (the
    estimate is a heuristic, not an upper bound).
    """

    n: int
    eps: float
    uf: str
    norm_I_minus_PA: float
    bound_2n_eps: float
    kappa_tilde: float
    estimate: float
    dist_to_inverse: float
    dist_bound: float
    feasible: bool
    satisfied_all: bool
    cond2_at: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def check_bounds(A: SparseMatrix, pre: SpaiPreconditioner) -> BoundReport:
    """Fill a :class:`BoundReport` for a built preconditioner.

    When every column is satisfied the two residual bounds are asserted
    (raising :class:`BoundViolationError` on failure); otherwise the report
    is returned flagged, with nothing asserted.
    """
    params = pre.params
    n = A.n_rows
    eps = params.eps
    Ad = _dense(A)
    invA = _inv(Ad)
    Pd = pre.P.to_dense()
    PA = pre.apply_exact(A)
    norm_res = norm_inf(np.eye(n) - PA)
    bound = 2.0 * n * eps
    dist = norm_inf(Pd - invA)
    dist_bound = bound * norm_inf(invA)
    cond2_at = _cond2_transpose(Ad, invA)
    kt = _kappa(PA)  # the last use of P A, which its inverse overwrites
    satisfied_all = pre.all_satisfied
    report = BoundReport(
        n=n,
        eps=eps,
        uf=params.uf.name,
        norm_I_minus_PA=norm_res,
        bound_2n_eps=bound,
        kappa_tilde=kt,
        estimate=kappa_estimate(n, eps),
        dist_to_inverse=dist,
        dist_bound=dist_bound,
        feasible=feasible(params.uf, cond2_at, eps),
        satisfied_all=satisfied_all,
        cond2_at=cond2_at,
    )
    if satisfied_all:
        if norm_res > bound:
            raise BoundViolationError(
                f"residual bound violated: |I - P A| = {norm_res:.3e} > 2 n eps = {bound:.3e}"
            )
        if dist > dist_bound:
            raise BoundViolationError(
                f"inverse distance bound violated: {dist:.3e} > {dist_bound:.3e}"
            )
    return report
