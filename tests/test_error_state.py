"""The package's one numpy error-state policy.

Overflow to infinity and 0/0 = NaN are intended results of the emulation,
so every public function that computes on emulated values runs under
:func:`spai_ir.precision.quiet` and emits no numpy warning, whatever the
caller's warning filters are.  Each case below overflows half somewhere.
"""

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import random_dd_sparse
from spai_ir.krylov import pgmres_left
from spai_ir.precision import DOUBLE, HALF, SINGLE, PrecisionOverflowSignal, quiet
from spai_ir.refine import IrConfig, prepare_solver, run_ir
from spai_ir.reference import rhs_for
from spai_ir.spai import SpaiParams, build_left_preconditioner, build_spai
from spai_ir.sparse import SparseMatrix

DIAG = SparseMatrix.from_dense(np.diag([3e3, 6e3, 9e3]))


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_pgmres_left_half_overflow_raises_no_warning():
    with pytest.raises(PrecisionOverflowSignal):
        pgmres_left(DIAG, None, np.ones(3), 1e-4, HALF, HALF)


@pytest.mark.parametrize("u", [HALF, SINGLE])
def test_run_ir_half_gmres_overflow_raises_no_warning(u):
    cfg = IrConfig(uf=HALF, u=u, ur=DOUBLE, solver="none", tau=1e-4, ug=HALF, up=HALF)
    with pytest.raises(PrecisionOverflowSignal):
        run_ir(DIAG, rhs_for(3), cfg)


def test_prepare_solver_half_lu_overflow_raises_no_warning(rng):
    A = SparseMatrix.from_dense(random_dd_sparse(rng, 8) * 3.0e4)
    solver = prepare_solver(A, IrConfig(uf=HALF, u=SINGLE, ur=DOUBLE, solver="lu", tau=1e-4))
    assert solver.r is not None  # the unscaled factorization overflowed


def test_half_spai_builds_raise_no_warning():
    # entries of 1e5 do not fit half before the column scaling
    wide = np.eye(4) + np.diag(np.full(3, 1e5), 1)
    pre = build_left_preconditioner(SparseMatrix.from_dense(wide), SpaiParams(eps=0.05, uf=HALF))
    assert np.all(np.isfinite(pre.P.data))
    # unscaled, the inverse of this bidiagonal grows past the half range
    growing = np.eye(4) + np.diag(np.full(3, 1e3), -1)
    pre = build_spai(SparseMatrix.from_dense(growing), SpaiParams(eps=0.05, uf=HALF))
    assert "overflow" in pre.col_status


def test_quiet_restores_the_callers_state_when_nested():
    @quiet
    def depth(k):
        return depth(k - 1) if k else np.geterr()

    with np.errstate(over="raise", invalid="warn", divide="raise"):
        caller = np.geterr()
        assert depth(3)["over"] == depth(0)["invalid"] == depth(1)["divide"] == "ignore"
        assert np.geterr() == caller


def test_quiet_in_a_worker_thread_leaves_the_main_threads_state():
    """The shared decorator keeps its state per call: a worker inside a
    ``quiet`` function overflows half with no warning (the fixture makes
    one an error, raised through ``result()``), while the main thread,
    under its own ``np.errstate``, still raises on overflow."""
    inside, checked = threading.Event(), threading.Event()

    @quiet
    def overflow_half():
        inside.set()
        checked.wait(10)
        return np.float16(65504.0) * np.float16(2.0), np.geterr()

    with np.errstate(over="raise"):
        caller = np.geterr()
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(overflow_half)
            assert inside.wait(10)
            try:
                assert np.geterr() == caller
                with pytest.raises(FloatingPointError):
                    np.float16(65504.0) * np.float16(2.0)
            finally:
                checked.set()
            value, state = future.result(timeout=10)
        assert np.geterr() == caller
    assert value == np.inf and state["over"] == state["invalid"] == state["divide"] == "ignore"
