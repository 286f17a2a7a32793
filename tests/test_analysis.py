import numpy as np
import pytest

from conftest import load_synthetic, random_dd_sparse
from spai_ir.analysis import (
    BoundViolationError,
    _two_norm_power,
    check_bounds,
    cond2_transpose,
    kappa_inf,
    kappa_inf_product,
)
from spai_ir.precision import HALF, SINGLE, SingularMatrixError
from spai_ir.spai import SpaiParams, build_left_preconditioner
from spai_ir.sparse import SparseMatrix


def test_kappa_inf_trivial():
    assert kappa_inf(SparseMatrix.identity(5)) == pytest.approx(1.0)
    assert kappa_inf(SparseMatrix.from_dense(np.diag([1.0, 10.0]))) == pytest.approx(10.0)


def test_kappa_inf_singular():
    with pytest.raises(SingularMatrixError):
        kappa_inf(np.zeros((2, 2)))


NON_SQUARE = SparseMatrix.from_dense(np.ones((2, 3)))


def test_kappa_inf_non_square_is_not_singular():
    with pytest.raises(ValueError, match="^square matrix required, got 2x3$"):
        kappa_inf(NON_SQUARE)


def test_cond2_transpose_non_square_is_not_singular():
    with pytest.raises(ValueError, match="^square matrix required, got 2x3$"):
        cond2_transpose(NON_SQUARE)


def test_kappa_inf_product_non_square_is_not_singular():
    with pytest.raises(ValueError, match="^square matrix required, got 2x3$"):
        kappa_inf_product(SparseMatrix.identity(2), NON_SQUARE)


def test_cond2_transpose_singular():
    with pytest.raises(SingularMatrixError):
        cond2_transpose(SparseMatrix.from_dense(np.ones((2, 2))))


def test_cond2_transpose_identity():
    assert cond2_transpose(SparseMatrix.identity(7)) == pytest.approx(1.0, rel=1e-3)


def test_cond2_transpose_vs_svd(rng):
    A = random_dd_sparse(rng, 20)
    X = np.abs(np.linalg.inv(A).T) @ np.abs(A.T)
    want = np.linalg.svd(X, compute_uv=False)[0]
    got = cond2_transpose(SparseMatrix.from_dense(A))
    assert got == pytest.approx(want, rel=1e-2)


def test_cond2_transpose_where_only_xtx_overflows():
    # X = |inv(A^T)| |A^T| = [[1, 0], [2e155, 1]] is finite, but X^T X is not
    A = np.array([[1.0, 1e155], [0.0, 1.0]])
    want = np.linalg.svd(np.abs(np.linalg.inv(A).T) @ np.abs(A.T), compute_uv=False)[0]
    got = cond2_transpose(SparseMatrix.from_dense(A))
    assert np.isfinite(got) and got == pytest.approx(want, rel=1e-3)


def test_cond2_transpose_where_x_overflows_is_inf_without_a_warning():
    # X = |inv(A^T)| |A^T| overflows to an inf and a NaN entry here; pytest turns numpy's
    # RuntimeWarnings into errors, so a leaked warning fails the test too
    A = np.array([[1e200, 1e300], [0.0, 1e-200]])
    assert cond2_transpose(SparseMatrix.from_dense(A)) == np.inf


def test_kappa_inf_product(rng):
    A = random_dd_sparse(rng, 10)
    As = SparseMatrix.from_dense(A)
    P = SparseMatrix.from_dense(np.linalg.inv(A))
    assert kappa_inf_product(P, As) == pytest.approx(1.0, rel=1e-10)


def test_check_bounds_identity():
    I = SparseMatrix.identity(6)
    pre = build_left_preconditioner(I, SpaiParams(eps=0.3, uf=SINGLE))
    rep = check_bounds(I, pre)
    assert rep.norm_I_minus_PA == 0.0
    assert rep.satisfied_all and rep.feasible
    assert rep.kappa_tilde == pytest.approx(1.0)


def test_check_bounds_random_dd_against_dense_oracle(rng):
    A = random_dd_sparse(rng, 10)
    As = SparseMatrix.from_dense(A)
    pre = build_left_preconditioner(As, SpaiParams(eps=0.3, uf=SINGLE))
    rep = check_bounds(As, pre)
    assert rep.satisfied_all
    # independent dense recomputation of the checked quantity
    resid = np.eye(10) - pre.P.to_dense() @ A
    want = np.abs(resid).sum(axis=1).max()
    assert rep.norm_I_minus_PA == pytest.approx(want, rel=1e-14)
    assert rep.norm_I_minus_PA <= rep.bound_2n_eps
    assert rep.dist_to_inverse <= rep.dist_bound
    assert rep.estimate == (1 + 2 * 10 * 0.3) ** 2


def test_check_bounds_reports_cond2_transpose_exactly():
    A = load_synthetic("conv_diff_225")
    pre = build_left_preconditioner(A, SpaiParams(eps=0.3, uf=SINGLE))
    assert check_bounds(A, pre).cond2_at == cond2_transpose(A)


def test_check_bounds_unsatisfied_flagged_not_asserted(rng):
    A = random_dd_sparse(rng, 14)
    As = SparseMatrix.from_dense(A)
    # alpha=0 forbids any pattern growth: most columns cannot reach eps
    pre = build_left_preconditioner(As, SpaiParams(eps=1e-6, alpha=0, uf=SINGLE))
    assert not pre.all_satisfied
    rep = check_bounds(As, pre)  # must not raise
    assert not rep.satisfied_all


def test_bound_violation_detected():
    # a deliberately corrupted preconditioner trips the hard assertion
    I = SparseMatrix.identity(4)
    pre = build_left_preconditioner(I, SpaiParams(eps=0.1, uf=SINGLE))
    bad = SparseMatrix.from_dense(np.eye(4) * 50.0)
    pre.P = bad
    with pytest.raises(BoundViolationError):
        check_bounds(I, pre)


def test_inverse_distance_violation_detected(monkeypatch):
    # P - inv(A) = (P A - I) inv(A) keeps the distance within its bound for a
    # preconditioner whose product is its own; one whose product claims
    # P A = I while P = 50 I is caught by the second check
    I = SparseMatrix.identity(4)
    pre = build_left_preconditioner(I, SpaiParams(eps=0.1, uf=SINGLE))
    pre.P = SparseMatrix.from_dense(np.eye(4) * 50.0)
    monkeypatch.setattr(pre, "apply_exact", lambda A: np.eye(4))
    with pytest.raises(BoundViolationError, match="^inverse distance bound violated: "):
        check_bounds(I, pre)


def test_power_iteration_edge_exits():
    # |inv(A^T)| |A^T| has a diagonal of at least 1, so cond2_transpose meets
    # neither exit: a zero X gives the zero norm, and a NaN in X, which never
    # settles, runs the 500 steps and returns the NaN
    assert _two_norm_power(np.zeros((3, 3))) == 0.0
    with np.errstate(all="ignore"):
        assert np.isnan(_two_norm_power(np.array([[np.nan, 1.0], [0.0, 1.0]])))


def test_bound_report_serializes(rng):
    A = load_synthetic("dd_rand_64")
    pre = build_left_preconditioner(A, SpaiParams(eps=0.4, uf=HALF))
    rep = check_bounds(A, pre)
    d = rep.to_dict()
    assert set(d) >= {"n", "eps", "norm_I_minus_PA", "bound_2n_eps", "kappa_tilde",
                      "estimate", "dist_to_inverse", "dist_bound", "feasible"}
