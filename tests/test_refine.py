import re

import numpy as np
import pytest

from conftest import load_synthetic, packed, random_dd_sparse, reference_solution, stored
from spai_ir import refine
from spai_ir.krylov import pgmres_left
from spai_ir.precision import (
    DOUBLE,
    HALF,
    QUAD,
    SINGLE,
    PrecisionOverflowSignal,
    SingularMatrixError,
    dd_residual,
    dd_solve,
)
from spai_ir.refine import (
    IrConfig,
    LuPreconditioner,
    dense_lu,
    equilibrate_two_sided,
    measure_errors,
    norm_inf,
    prepare_solver,
    rcm_permutation,
    run_ir,
)
from spai_ir.reference import rhs_for
from spai_ir.spai import SpaiParams
from spai_ir.sparse import SparseMatrix


# ---- dense LU ---------------------------------------------------------------


def test_lu_identity():
    f = dense_lu(stored(np.eye(4)), DOUBLE)
    lu, perm = packed(f)
    assert np.array_equal(lu, np.eye(4))  # L = U = I, packed
    assert np.array_equal(perm, np.arange(4))
    assert f.nnz_lu == 4


def test_lu_permutation_matrix():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    lu, perm = packed(dense_lu(stored(A), DOUBLE))
    assert np.array_equal(lu, np.eye(2))
    assert np.array_equal(perm, np.array([1, 0]))


def test_lu_reconstruction_bound(rng):
    A = random_dd_sparse(rng, 8)
    lu, perm = packed(dense_lu(stored(A), DOUBLE))
    PA = A[perm]
    L = np.tril(lu, -1) + np.eye(8)
    U = np.triu(lu)
    err = norm_inf(PA - L @ U)
    assert err <= 10 * 8**3 * 2.0**-53 * norm_inf(A)


def test_lu_nnz_counts_pivots_of_minus_one():
    # a pivot of exactly -1 must not cancel the unit diagonal of L
    assert dense_lu(stored(-np.eye(3)), SINGLE).nnz_lu == 3
    assert dense_lu(stored(np.array([[2.0, 1.0], [1.0, -0.5]])), SINGLE).nnz_lu == 4


def test_lu_singular():
    with pytest.raises(SingularMatrixError, match="singular"):
        dense_lu(stored(np.zeros((3, 3))), SINGLE)


def test_lu_half_overflow_and_equilibration(rng):
    A = random_dd_sparse(rng, 6) * 3.0e4  # products overflow half during elimination
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the factorization in half$"):
        dense_lu(stored(A), HALF)
    r, s, mu = equilibrate_two_sided(SparseMatrix.from_dense(A), HALF)
    scaled = mu * (A * r[:, None]) * s[None, :]
    f = dense_lu(stored(scaled), HALF)  # no overflow after scaling
    lupre = LuPreconditioner(f, np.arange(6), r=r, s=s, mu=mu)
    b = rng.randn(6)
    x = lupre.apply(b, SINGLE)
    want = np.linalg.solve(A, b)
    assert np.abs(x - want).max() <= 1e-2 * np.abs(want).max()


def test_infinite_scale_retry_raises_the_overflow():
    # after RCM the half factors meet 1e5 -> inf in the pivot row over the
    # tiny row's zero multiplier (0 * inf = NaN): they overflow; then row 0,
    # which peaks at 1e-310, has the scale 1 / 1e-310 = inf, which would make
    # every entry of its row of mu R A S +-inf or NaN
    A = SparseMatrix.from_dense(np.array([[1e-310, 1e-310], [1e5, 1.0]]))
    B = A.permuted(rcm_permutation(A))
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the factorization in half$"):
        dense_lu(B, HALF)
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the factorization in half$"):
        prepare_solver(A, IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="lu"))
    # called directly, for an infinite row scale and for an infinite column scale
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the factorization in half$"):
        equilibrate_two_sided(A, HALF)
    tiny_column = SparseMatrix.from_dense(np.array([[2.0, 1e-310], [1.0, 0.0]]))
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the factorization in single$"):
        equilibrate_two_sided(tiny_column, SINGLE)


def test_lu_half_underflow_drops_fill(rng):
    # entries far below the half-normal range vanish from the factors
    A = np.eye(5) + np.diag(np.full(4, 1e-9), -1)
    f_half = dense_lu(stored(A), HALF)
    f_double = dense_lu(stored(A), DOUBLE)
    assert f_half.nnz_lu < f_double.nnz_lu


def test_rcm_permutation_is_permutation(rng):
    A = SparseMatrix.from_dense(random_dd_sparse(rng, 15))
    p = rcm_permutation(A)
    assert sorted(p.tolist()) == list(range(15))


# ---- measure_errors ----------------------------------------------------------


def test_measure_errors_exact_and_zero(rng):
    A = SparseMatrix.from_dense(random_dd_sparse(rng, 10))
    b = rng.randn(10)
    x_ref = dd_solve(A, b)
    ferr, nbe = measure_errors(A, b, x_ref[0], x_ref=x_ref)
    assert ferr <= 1e-15
    assert nbe <= 1e-15
    ferr0, nbe0 = measure_errors(A, b, np.zeros(10), x_ref=x_ref)
    assert ferr0 == pytest.approx(1.0)
    assert nbe0 == pytest.approx(np.abs(b).max() / np.abs(b).max())


def test_measure_errors_constructed_perturbation(rng):
    A = SparseMatrix.from_dense(random_dd_sparse(rng, 12))
    b = rng.randn(12)
    x_ref = dd_solve(A, b)
    x = x_ref[0] * (1 + 1e-6)
    ferr, _ = measure_errors(A, b, x, x_ref=x_ref)
    assert ferr == pytest.approx(1e-6, abs=1e-12)


def test_run_with_a_zero_right_hand_side_has_no_forward_error():
    # b = 0 gives the reference x = 0, against which no relative error exists
    cfg = IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="none")
    with pytest.raises(ValueError, match="^reference solution is zero; forward error undefined$"):
        run_ir(SparseMatrix.identity(3), np.zeros(3), cfg)


# ---- run_ir -----------------------------------------------------------------


def test_identity_system_trivial():
    I = SparseMatrix.identity(16)
    b = rhs_for(16)
    cfg = IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="spai", tau=1e-8,
                   spai=SpaiParams(eps=0.5, uf=SINGLE))
    x, rep = run_ir(I, b, cfg)
    assert rep.converged
    assert rep.steps <= 1
    assert rep.ferr_history[-1] <= 16 * 2.0**-53


@pytest.mark.parametrize("solver", ["spai", "lu", "none", "sir"])
def test_all_solvers_converge_sdq(rng, solver):
    A = load_synthetic("band_asym_120")
    b = rhs_for(A.n_rows)
    n = A.n_rows
    cfg = IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver=solver, tau=1e-8,
                   spai=SpaiParams(eps=0.3, uf=SINGLE) if solver == "spai" else None)
    x, rep = run_ir(A, b, cfg, x_ref=reference_solution(A, b))
    assert rep.converged, rep
    assert rep.ferr_history[-1] <= 100 * n * 2.0**-53
    assert rep.nbe_history[-1] <= 100 * n * 2.0**-53
    assert len(rep.ferr_history) == rep.steps + 1
    assert len(rep.nbe_history) == rep.steps + 1
    if solver == "sir":
        assert all(v == 0 for v in rep.gmres_iters_per_step)
    assert rep.total_gmres_iters == sum(rep.gmres_iters_per_step)


@pytest.mark.parametrize("ur", [QUAD, DOUBLE])
def test_one_dd_residual_per_measured_iterate(monkeypatch, ur):
    # with ur = quad, a step's residual is the one its backward error is measured from
    A = load_synthetic("band_asym_120")
    b = rhs_for(A.n_rows)
    x_ref = reference_solution(A, b)
    calls = []

    def spy(*args):
        calls.append(args)
        return dd_residual(*args)

    monkeypatch.setattr(refine, "dd_residual", spy)
    x, rep = run_ir(A, b, IrConfig(uf=SINGLE, u=DOUBLE, ur=ur, solver="sir"), x_ref=x_ref)
    assert rep.converged and rep.steps >= 1
    assert len(calls) == rep.steps + 1


@pytest.mark.parametrize("solver", ["lu", "sir", "spai"])
def test_an_initial_solve_that_overflows_fails_fast(solver):
    # x_0 = 1e6 overflows half: sir used to refine NaN for i_max steps, lu and spai blamed GMRES's input
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]) + np.diag([0.5, 0.5], 1))
    cfg = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver=solver,
                   spai=SpaiParams(eps=0.3, uf=HALF) if solver == "spai" else None)
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the initial solve in half$"):
        run_ir(A, np.array([1e6, 1.0, 1.0]), cfg)


@pytest.mark.parametrize("A, b, cfg, step", [
    # x_0 = 1e6 fits the double solve but not half storage: the error names u, not uf
    (np.diag([1.0, 2.0, 3.0]), [1e6, 1.0, 1.0], IrConfig(uf=DOUBLE, u=HALF, ur=DOUBLE, solver="lu"),
     "the initial solve"),
    # sir's first half correction of the 5 x 5 Hilbert system overflows; the
    # run used to refine NaN for all i_max steps and report stagnated=False
    (1.0 / (np.arange(1, 6)[:, None] + np.arange(5)), [256.0] * 5,
     IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="sir"), "the correction solve"),
    # x_2 rounds to -inf in half; the run used to return it as stagnated
    ([[-0.14, 0.07, -0.27], [-0.31, 0.19, -0.83], [0.1, -0.06, 0.27]], [1.0, -98.0, -76.0],
     IrConfig(uf=HALF, u=HALF, ur=DOUBLE, solver="none"), "the update"),
], ids=["initial-solve-stored", "sir-correction", "update"])
def test_a_step_that_leaves_its_precision_raises(A, b, cfg, step):
    with pytest.raises(PrecisionOverflowSignal, match=f"^overflow in {step} in half$"):
        run_ir(SparseMatrix.from_dense(np.array(A)), np.array(b), cfg)


@pytest.mark.parametrize("solver", ["spai", "lu", "none"])
def test_all_solvers_converge_hsd(rng, solver):
    A = load_synthetic("lap2d_196")
    b = rhs_for(A.n_rows)
    n = A.n_rows
    cfg = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver=solver, tau=1e-4,
                   spai=SpaiParams(eps=0.3, uf=HALF) if solver == "spai" else None)
    x, rep = run_ir(A, b, cfg, x_ref=reference_solution(A, b))
    assert rep.converged, rep
    assert rep.ferr_history[-1] <= 100 * n * 2.0**-24
    assert rep.nbe_history[-1] <= 100 * n * 2.0**-24


@pytest.mark.parametrize("name", ["ident_32", "band_asym_120", "lap2d_196",
                                  "dd_rand_64", "conv_diff_225", "colscale_80"])
def test_limiting_accuracy_on_every_shipped_matrix(name):
    # converged (single, double, quad-emulated) runs reach working accuracy
    A = load_synthetic(name)
    b = rhs_for(A.n_rows)
    n = A.n_rows
    cfg = IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="spai", tau=1e-8,
                   spai=SpaiParams(eps=0.3, uf=SINGLE))
    x, rep = run_ir(A, b, cfg, x_ref=reference_solution(A, b))
    assert rep.converged
    assert rep.ferr_history[-1] <= 100 * n * 2.0**-53
    assert rep.nbe_history[-1] <= 100 * n * 2.0**-53


def test_ferr_contracts_until_convergence(rng):
    A = load_synthetic("conv_diff_225")
    b = rhs_for(A.n_rows)
    cfg = IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="spai", tau=1e-8,
                   spai=SpaiParams(eps=0.4, uf=SINGLE))
    x, rep = run_ir(A, b, cfg, x_ref=reference_solution(A, b))
    assert rep.converged
    # monotone decrease with factor-2 slack while above the limiting level
    h = rep.ferr_history
    for a, b_ in zip(h[:-1], h[1:]):
        assert b_ <= 2.0 * a


def test_scaled_lu_fallback_inside_run(rng):
    dense = random_dd_sparse(rng, 8) * 3.0e4
    A = SparseMatrix.from_dense(dense)
    cfg = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="lu", tau=1e-4)
    solver = prepare_solver(A, cfg)
    assert solver.r is not None  # the unscaled factorization overflowed
    x, rep = run_ir(A, rhs_for(8), cfg, solver=solver)
    assert rep.converged
    assert rep.details["lu_scaled"]


@pytest.mark.parametrize("solver", ["spai", "lu", "none", "sir"])
def test_run_with_a_prepared_solver_equals_a_run_that_prepares_it(solver):
    A = load_synthetic("dd_rand_64")
    b = rhs_for(A.n_rows)
    cfg = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver=solver,
                   spai=SpaiParams(eps=0.3, uf=HALF) if solver == "spai" else None)
    x, rep = run_ir(A, b, cfg, solver=prepare_solver(A, cfg))
    x2, rep2 = run_ir(A, b, cfg)
    assert x.tobytes() == x2.tobytes()
    assert repr(rep.to_dict()) == repr(rep2.to_dict())


def test_imax_exhaustion_reports_unconverged(rng):
    A = load_synthetic("dd_rand_64")
    b = rhs_for(A.n_rows)
    # one loose GMRES solve (tau = 0.5) leaves the forward error far above n * u
    cfg = IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="none", tau=0.5, i_max=1)
    x, rep = run_ir(A, b, cfg)
    assert not rep.converged
    assert rep.steps == 1


def test_config_validation():
    with pytest.raises(ValueError):
        IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="cholesky")
    with pytest.raises(ValueError):
        IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, i_max=0)
    with pytest.raises(ValueError, match="requires cfg.spai"):
        IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="spai")
    with pytest.raises(ValueError, match="must match cfg.uf"):
        IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="spai", spai=SpaiParams(eps=0.3, uf=HALF))


# a count field -> the class that holds it and the other arguments it needs
COUNTS = {
    "alpha": (SpaiParams, {"eps": 0.01}),
    "beta": (SpaiParams, {"eps": 0.01}),
    "i_max": (IrConfig, {"uf": SINGLE, "u": DOUBLE, "ur": QUAD, "solver": "none"}),
}


@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0)])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_must_be_integers(name, value):
    """A non-integral count is refused at construction with one line; a
    numpy integer is still a count."""
    cls, kwargs = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        cls(**kwargs, **{name: value})
    assert getattr(cls(**kwargs, **{name: np.int64(2)}), name) == 2


def test_run_without_tau_takes_the_working_precision_tolerance():
    # hsd: tau is 1e-4, so GMRES stops twice at 9 iterations; a tau of 1e-8
    # would run one solve capped at n = 120 iterations
    A = load_synthetic("band_asym_120")
    cfg = IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="spai", spai=SpaiParams(eps=0.3, uf=HALF))
    x, rep = run_ir(A, rhs_for(A.n_rows), cfg)
    assert rep.converged and rep.details["tau"] == 1e-4
    assert rep.gmres_iters_per_step == [9, 9]


def test_tau_checked_at_construction():
    for tau in (0.0, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="tau must lie strictly between 0 and 1"):
            IrConfig(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="none", tau=tau)


# ---- input checks -------------------------------------------------------------


def _no_factorization(monkeypatch):
    from spai_ir import refine

    def must_not_run(*args, **kwargs):
        pytest.fail("a bad input reached an ordering, build or factorization")

    for name in ("rcm_permutation", "dense_lu", "build_left_preconditioner", "dd_solve"):
        monkeypatch.setattr(refine, name, must_not_run)


def _cfg(solver):
    spai = SpaiParams(eps=0.3, uf=HALF) if solver == "spai" else None
    return IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver=solver, spai=spai)


@pytest.mark.parametrize("solver", ["spai", "lu", "none", "sir"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_matrix_entry_is_named_before_any_factorization(monkeypatch, solver, value):
    # an inf used to surface as "overflow in double" (none), "singular in
    # single: zero pivot at step 1" (lu) or "zero column: ..." (spai)
    A = SparseMatrix.from_dense(np.diag([1.0, value, 1.0]))
    _no_factorization(monkeypatch)
    with pytest.raises(ValueError, match="^matrix A has a NaN or infinite entry$"):
        run_ir(A, rhs_for(3), _cfg(solver))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_right_hand_side_is_named_before_any_factorization(monkeypatch, value):
    # a NaN used to surface as "singular" from the reference solve
    b = rhs_for(3)
    b[1] = value
    _no_factorization(monkeypatch)
    with pytest.raises(ValueError, match="^right-hand side b has a NaN or infinite entry$"):
        run_ir(SparseMatrix.identity(3), b, _cfg("lu"))


@pytest.fixture(scope="module")
def lap2d_lu():
    A = load_synthetic("lap2d_196")
    return A, prepare_solver(A, IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="lu"))


WRONG_VECTORS = {
    "substitute": ("b", lambda A, P, v: P.factors.substitute(v, DOUBLE)),
    "apply": ("v", lambda A, P, v: P.apply(v, SINGLE)),
    "pgmres_left": ("r", lambda A, P, v: pgmres_left(A, P, v, 1e-4, SINGLE, DOUBLE)),
    "pgmres_left unpreconditioned": ("r", lambda A, P, v: pgmres_left(A, None, v, 1e-4, SINGLE, DOUBLE)),
}


@pytest.mark.parametrize("entry", sorted(WRONG_VECTORS))
@pytest.mark.parametrize("shape", [(195,), (197,), (196, 1)], ids=["n-1", "n+1", "column"])
def test_lu_and_gmres_refuse_a_vector_of_the_wrong_shape(lap2d_lu, entry, shape):
    # such a vector used to give a result of the wrong length (n - 1 and
    # n + 1 entries), or numpy's own broadcast or sequence error
    A, P = lap2d_lu
    name, call = WRONG_VECTORS[entry]
    with pytest.raises(ValueError, match=rf"^dimension mismatch: {name} of shape {re.escape(str(shape))} "
                                         r"for a \(196, 196\) matrix, expected \(196,\)$"):
        call(A, P, np.ones(shape))
