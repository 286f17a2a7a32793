import numpy as np
import pytest

from conftest import load_synthetic, random_dd_sparse, reference_pgmres_left
from spai_ir.krylov import apply_precond_matvec, pgmres_left
from spai_ir.precision import DOUBLE, HALF, SINGLE, PrecisionOverflowSignal
from spai_ir.reference import SYNTHETIC, rhs_for
from spai_ir.sparse import SparseMatrix, matvec


def test_apply_precond_matvec(rng):
    dense = random_dd_sparse(rng, 7)
    A = SparseMatrix.from_dense(dense)
    v = rng.randn(7)
    # P = identity object: y = A v
    assert np.array_equal(apply_precond_matvec(A, None, v, DOUBLE), matvec(A, v, DOUBLE))
    I7 = SparseMatrix.identity(7)
    assert np.array_equal(apply_precond_matvec(I7, I7, v, DOUBLE), v)
    # double-precision application close to the exact dense product
    P = SparseMatrix.from_dense(np.linalg.inv(dense))
    got = apply_precond_matvec(A, P, v, DOUBLE)
    want = np.linalg.inv(dense) @ (dense @ v)
    amp = np.abs(np.linalg.inv(dense)) @ (np.abs(dense) @ np.abs(v))
    assert np.all(np.abs(got - want) <= 7 * 2.0**-53 * (amp + np.abs(want)) * 8)


def test_overflow_signal():
    A = SparseMatrix.from_dense(np.full((3, 3), 6.0e4))
    with pytest.raises(PrecisionOverflowSignal, match=r"^overflow in the preconditioned operator in half$"):
        apply_precond_matvec(A, None, np.full(3, 10.0), HALF)


@pytest.mark.parametrize("diag, r, ug", [
    ([1.0, 1.0, 1.0], [1e5, 0.0, 0.0], HALF),  # the right-hand side rounds to inf
    ([1.0, 1.0, 1.0], [300.0, 300.0, 300.0], HALF),  # its norm: 3 * 300**2 > 65504
    ([1.0, 1.0, 1.0], [1e20, 1e20, 1e20], SINGLE),
    ([3e3, 6e3, 9e3], [1.0, 1.0, 1.0], HALF),  # the first Arnoldi norm
    ([300.0, 300.0, 300.0], [1.0, 1.0, 1.0], HALF),  # the first Givens denominator: 300**2 > 65504
])
def test_overflow_in_gmres_names_the_working_precision(diag, r, ug):
    # the operator is applied in double, so only ug can overflow
    A = SparseMatrix.from_dense(np.diag(diag))
    with pytest.raises(PrecisionOverflowSignal, match=rf"^overflow in GMRES in {ug.name}$"):
        pgmres_left(A, None, np.array(r), 1e-4, ug, DOUBLE)


def test_overflowing_correction_names_the_working_precision():
    # every Arnoldi and Givens value fits in half, but the correction
    # 200 / 1e-3 = 2e5 does not
    A = SparseMatrix.from_dense(np.array([[1e-3]]))
    with pytest.raises(PrecisionOverflowSignal, match=r"^overflow in GMRES in half$"):
        pgmres_left(A, None, np.array([200.0]), 1e-4, HALF, DOUBLE)


def test_exact_inverse_preconditioner_one_iteration(rng):
    dense = rng.randn(5, 5) + 8 * np.eye(5)
    A = SparseMatrix.from_dense(dense)
    P = SparseMatrix.from_dense(np.linalg.inv(dense))
    r = rng.randn(5)
    d, rep = pgmres_left(A, P, r, 1e-8, DOUBLE, DOUBLE)
    assert rep.iters == 1
    assert rep.converged and not rep.breakdown


def test_diagonal_system_matches_dense_solve(rng):
    A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 6.0)))
    r = rng.randn(5)
    d, rep = pgmres_left(A, None, r, 1e-12, DOUBLE, DOUBLE)
    assert rep.iters <= 5
    want = r / np.arange(1.0, 6.0)
    assert np.abs(d - want).max() <= 1e-10 * np.abs(want).max()


def test_identity_happy_breakdown(rng):
    I = SparseMatrix.identity(6)
    r = rng.randn(6)
    d, rep = pgmres_left(I, None, r, 1e-10, DOUBLE, DOUBLE)
    assert rep.iters == 1
    assert rep.converged and not rep.breakdown
    assert np.allclose(d, r, rtol=1e-14)


def test_zero_rhs_returns_zero():
    A = SparseMatrix.identity(4)
    d, rep = pgmres_left(A, None, np.zeros(4), 1e-8, DOUBLE, DOUBLE)
    assert np.array_equal(d, np.zeros(4))
    assert rep.iters == 0 and rep.converged


def test_a_nonzero_rhs_whose_preconditioned_image_rounds_to_zero_is_not_converged():
    # 1e-9 fits single but rounds to zero in half: nothing was solved
    d, rep = pgmres_left(SparseMatrix.identity(4), None, np.full(4, 1e-9), 1e-4, HALF, SINGLE)
    assert np.array_equal(d, np.zeros(4))
    assert rep.iters == 0 and not rep.converged and not rep.breakdown
    assert rep.relres_history == [1.0]


def test_relres_history_nonincreasing_double(rng):
    dense = random_dd_sparse(rng, 25)
    A = SparseMatrix.from_dense(dense)
    r = rng.randn(25)
    d, rep = pgmres_left(A, None, r, 1e-10, DOUBLE, DOUBLE)
    hist = rep.relres_history
    for a, b in zip(hist, hist[1:]):
        assert b <= a * (1 + 1e-12)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_true_residual_consistent_with_estimate(name):
    # stopping estimate vs true residual: with everything in double and no
    # preconditioner the final true relative residual is within 10x of tau
    A = load_synthetic(name)
    tau = 1e-8
    r = rhs_for(A.n_rows)
    d, rep = pgmres_left(A, None, r, tau, DOUBLE, DOUBLE)
    assert rep.converged
    true_rel = np.linalg.norm(r - A.to_dense() @ d) / np.linalg.norm(r)
    assert true_rel <= 10 * tau


def test_orthogonality_diagnostic(rng):
    dense = random_dd_sparse(rng, 20)
    A = SparseMatrix.from_dense(dense)
    r = rng.randn(20)
    d, rep, ortho_defect = reference_pgmres_left(A, None, r, 1e-10, DOUBLE, DOUBLE, collect_diagnostics=True)
    # the oracle's basis is pgmres_left's: the solutions agree bit for bit
    assert np.array_equal(pgmres_left(A, None, r, 1e-10, DOUBLE, DOUBLE)[0], d)
    # logged, not asserted against a bound: MGS orthogonality decays like
    # u / relres as the solver converges, so only sanity is checked here
    assert ortho_defect is not None
    assert np.isfinite(ortho_defect)
    assert ortho_defect < 1e-3


def test_single_precision_run_converges(rng):
    dense = random_dd_sparse(rng, 30)
    A = SparseMatrix.from_dense(dense)
    r = rng.randn(30)
    d, rep = pgmres_left(A, None, r, 1e-4, SINGLE, SINGLE)
    assert rep.converged
    true_rel = np.linalg.norm(r - A.to_dense() @ d) / np.linalg.norm(r)
    assert true_rel <= 1e-3


def test_half_precision_gmres_runs(rng):
    # not exercised by the benchmark configurations, but the emulation must
    # hold up: loose tolerance on a small well-scaled system
    dense = np.float64(np.float16(random_dd_sparse(rng, 12)))
    A = SparseMatrix.from_dense(dense)
    r = np.float64(np.float16(rng.randn(12) * 0.1))
    d, rep = pgmres_left(A, None, r, 5e-2, HALF, HALF)
    assert rep.iters <= 12
    assert np.all(np.isfinite(d))
    true_rel = np.linalg.norm(r - dense @ d) / np.linalg.norm(r)
    assert true_rel <= 0.3
