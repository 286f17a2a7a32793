"""Exact oracles for the error figures a run reports: ``refine.norm_inf`` and
``refine.measure_errors`` against the same quantities in ``Fraction``
arithmetic, within bounds derived from the code's own operations.

With u = 2**-53 and no underflow or overflow (the drawn values lie within
2**+-70 of 1, far from both):

- ``norm_inf``.  Every |a_ij| is exact, so each row sum of n terms, added
  in any order, is within gamma_(n-1) = (n - 1) u / (1 - (n - 1) u) of its
  exact value, relatively, and so is the largest of them.
- ``measure_errors``' ferr = max|x_ref - x| / max|x_ref|, x_ref = xh + xl a
  normalized pair (|xl| <= u |xh|, which the test checks of ``dd_solve``'s
  output).  ``xh - x`` is exact where x lies within a factor 2 of xh
  (Sterbenz), and elsewhere is at least |xh| / 2, so each entry of
  ``(xh - x) + xl`` is within 2u (1 + 4u) of its exact value, relatively.
  The denominator ``xh + xl`` rounds once and the quotient once: ferr is
  within 4u (1 + 8u) < 5u of the exact one, relatively.
- nbe = max|r| / (max|b| + |A|_inf max|x|), r = b - A x.  ``dd_residual``
  errs by at most half an ulp plus 10 n 2**-106 (|b_i| + sum_j |a_ij x_j|)
  (``tests/test_dd_residual_property.py``), and that sum is at most the
  exact denominator D; |A|_inf errs by gamma_(n-1), its product and the sum
  with max|b| by u each, and the quotient by u.  So nbe is within
  (n + 3) u (1 + O(u)) of the exact one relatively, plus 10 n 2**-106 (1 +
  O(u)) absolutely; the test allows (n + 4) u and 11 n 2**-106.
- ``run_ir``'s ``converged``.  On a diagonally dominant system with n <= 8,
  a run that reports it has ferr against the exact solution, and nbe, each
  at most n u of its working precision, in ``Fraction`` arithmetic.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dd_sparse
from spai_ir.precision import dd_solve, parse_precision
from spai_ir.refine import IrConfig, measure_errors, norm_inf, run_ir
from spai_ir.spai import SpaiParams
from spai_ir.sparse import SparseMatrix

U = Fraction(1, 2**53)


def gamma(k: int) -> Fraction:
    return k * U / (1 - k * U)


def exact(values) -> list:
    return [Fraction(float(v)) for v in np.ravel(values)]


def exact_norm_inf(dense: np.ndarray) -> Fraction:
    return max(sum(abs(Fraction(float(a))) for a in row) for row in dense)


def wide_values(rng, shape) -> np.ndarray:
    """Normal doubles over 2**+-40, so that sums round."""
    return rng.standard_normal(shape) * 2.0 ** rng.randint(-40, 41, size=shape)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0]))
def test_norm_inf_is_within_the_summation_bound_in_every_layout(n_rows, n_cols, seed, density):
    rng = np.random.RandomState(seed)
    dense = np.where(rng.rand(n_rows, n_cols) < density, wide_values(rng, (n_rows, n_cols)), 0.0)
    want = exact_norm_inf(dense)
    strided = np.zeros((2 * n_rows, 3 * n_cols))
    strided[::2, 1::3] = dense
    layouts = {
        "C": np.ascontiguousarray(dense),
        "Fortran": np.asfortranarray(dense),
        "strided": strided[::2, 1::3],
        "sparse": SparseMatrix.from_dense(dense),
    }
    if dense.size > 1:  # a 1 x 1 view is contiguous whatever its strides
        assert not (layouts["strided"].flags.c_contiguous or layouts["strided"].flags.f_contiguous)
    for name, X in layouts.items():
        got = norm_inf(X)
        assert isinstance(got, float)
        assert abs(Fraction(got) - want) <= gamma(n_cols - 1) * want, name


@st.composite
def systems_and_candidates(draw):
    """A nonsingular system with n <= 12 and rows of unequal scale, its
    ``dd_solve`` pair, and a candidate x: within a few ulps of xh (where xl
    matters), a relative perturbation of xh, or unrelated to it."""
    n = draw(st.integers(1, 12))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    dense = rng.standard_normal((n, n)) * (rng.rand(n, n) < draw(st.sampled_from([0.3, 1.0])))
    dense[np.diag_indices(n)] = n + rng.rand(n)
    dense *= 2.0 ** rng.randint(-20, 21, size=(n, 1))
    A = SparseMatrix.from_dense(dense)
    b = wide_values(rng, n) * 2.0**-20
    xh, xl = dd_solve(A, b)
    kind = draw(st.sampled_from(["ulps", "ulps", "relative", "unrelated"]))
    if kind == "ulps":
        x = xh.copy()
        for i, k in enumerate(rng.randint(-3, 4, size=n)):
            for _ in range(abs(k)):
                x[i] = np.nextafter(x[i], np.inf if k > 0 else -np.inf)
    elif kind == "relative":
        x = xh * (1.0 + rng.standard_normal(n) * 10.0 ** rng.randint(-12, 0))
    else:
        x = wide_values(rng, n)
    return dense, A, b, (xh, xl), x


@settings(max_examples=150, deadline=None)
@given(systems_and_candidates())
def test_measure_errors_is_within_its_bound_of_the_exact_errors(case):
    dense, A, b, (xh, xl), x = case
    n = b.size
    assert np.array_equal(xh + xl, xh)  # a normalized pair
    ferr, nbe = measure_errors(A, b, x, x_ref=(xh, xl))

    X = [h + lo for h, lo in zip(exact(xh), exact(xl))]
    xs = exact(x)
    ferr_exact = max(abs(r - c) for r, c in zip(X, xs)) / max(abs(r) for r in X)
    assert abs(Fraction(ferr) - ferr_exact) <= 5 * U * ferr_exact

    a = [exact(row) for row in dense]
    bs = exact(b)
    residual = max(abs(bi - sum(aij * xj for aij, xj in zip(row, xs))) for bi, row in zip(bs, a))
    den = max(abs(bi) for bi in bs) + exact_norm_inf(dense) * max(abs(xj) for xj in xs)
    nbe_exact = residual / den
    assert abs(Fraction(nbe) - nbe_exact) <= (n + 4) * U * nbe_exact + Fraction(11 * n, 2**106)


def exact_solution(dense: np.ndarray, b: np.ndarray) -> list:
    """x with A x = b, by Gaussian elimination in ``Fraction`` arithmetic."""
    n = b.size
    rows = [exact(row) + [Fraction(float(bi))] for row, bi in zip(dense, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * c for a, c in zip(rows[i], rows[k])]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(["lu", "none", "spai"]),
       st.sampled_from(["hsd", "sdq"]))
def test_a_converged_run_meets_n_u_exactly(n, seed, solver, precisions):
    rng = np.random.RandomState(seed)
    dense = random_dd_sparse(rng, n)
    b = rng.standard_normal(n)
    uf, u, ur = map(parse_precision, precisions)
    spai = SpaiParams(eps=0.3, uf=uf) if solver == "spai" else None
    x, rep = run_ir(SparseMatrix.from_dense(dense), b, IrConfig(uf=uf, u=u, ur=ur, solver=solver, spai=spai))
    if not rep.converged:
        return
    X, xs, bound = exact_solution(dense, b), exact(x), n * Fraction(u.unit_roundoff)
    assert max(abs(r - c) for r, c in zip(X, xs)) <= bound * max(abs(r) for r in X)
    residual = max(abs(Fraction(float(bi)) - sum(a * xj for a, xj in zip(exact(row), xs)))
                   for bi, row in zip(b, dense))
    assert residual <= bound * (max(abs(Fraction(float(bi))) for bi in b) + exact_norm_inf(dense) * max(map(abs, xs)))
