"""Property test of GMRES computed in its working precision's own dtype.

``pgmres_left`` holds its state in the storage dtype of ``ug`` and lets
numpy's IEEE arithmetic round each operation once.  That is bit-exact only
if every native operation equals the float64 operation rounded to ``ug``,
so ``pgmres_left`` is compared here, as raw bytes, with
``reference_pgmres_left``, the loop that computed in float64 and rounded
each result with ``fl`` or ``fl_op``.  Both must return the same solution,
iteration count, residual history and flags, or raise the same exception
with the same message.  Where the reference overflowed ``ug`` (a norm, the
right-hand side, a Givens denominator, or any non-finite output) or raised,
``pgmres_left`` must raise :class:`PrecisionOverflowSignal` instead, since it
stops at the first overflow of ``ug``.
"""

import struct
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_pgmres_left
from spai_ir.krylov import PrecisionOverflowSignal, pgmres_left
from spai_ir.precision import DOUBLE, HALF, SINGLE, dense_lu
from spai_ir.refine import LuPreconditioner
from spai_ir.sparse import SparseMatrix

FORMATS = {"h": HALF, "s": SINGLE, "d": DOUBLE}
# as given, overflow of half's products, overflow of half, underflow of half
SCALES = (1.0, 3.0e2, 1.0e5, 1.0e-6)


def outcome(solve, A, P, r, tau, ug, up, **kwargs):
    """The bytes of a solve, or its exception, and what kind of run it was."""
    try:
        d, rep = solve(A, P, r, tau, ug, up, **kwargs)
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc)), "overflow"
    history = struct.pack(f"<{len(rep.relres_history)}d", *rep.relres_history)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(rep.relres_history))):
        kind = "nonfinite"
    elif rep.converged:
        kind = "converged"
    elif rep.breakdown:
        kind = "breakdown"
    else:
        kind = "capped"
    return (d.tobytes(), rep.iters, history, rep.breakdown, rep.converged), kind


@st.composite
def gmres_inputs(draw):
    """A random sparse A with n in 1..16, its rows spread over several
    decades, some rows zero and the whole scaled, often past the half range;
    a right-hand side; ug and up; and no preconditioner, a sparse one or
    dense LU factors of a perturbed A."""
    n = draw(st.integers(1, 16))
    ug, up = draw(st.sampled_from("hsd")), draw(st.sampled_from("hsd"))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    A[rng.rand(n, n) >= draw(st.sampled_from([0.2, 0.5, 1.0]))] = 0.0
    if draw(st.booleans()):
        A[np.diag_indices(n)] += 4.0 * np.sign(rng.standard_normal(n))
    A *= 10.0 ** rng.uniform(-draw(st.integers(0, 6)), 0.0, (n, 1))
    A[rng.randint(n, size=draw(st.integers(0, 2))), :] = 0.0
    A *= draw(st.sampled_from(SCALES))
    r = rng.standard_normal(n) * draw(st.sampled_from([1.0, 1.0e-3, 1.0e3]))
    kind = draw(st.sampled_from(["none", "sparse", "lu"]))
    P = None
    if kind == "sparse":
        M = rng.standard_normal((n, n)) * (rng.rand(n, n) < 0.3) + np.diag(rng.uniform(0.5, 2.0, n))
        P = SparseMatrix.from_dense(M)
    elif kind == "lu":
        near = A + np.diag(np.where(np.abs(np.diag(A)) > 0, 0.0, 1.0)) + 0.1 * rng.standard_normal((n, n))
        try:
            P = LuPreconditioner(dense_lu(near, FORMATS[draw(st.sampled_from("hsd"))]), np.arange(n))
        except ArithmeticError:
            P = None
    tau = draw(st.sampled_from([0.5, 1.0e-2, 1.0e-4, 1.0e-8, 1.0e-14]))
    return SparseMatrix.from_dense(A), P, r, tau, FORMATS[ug], FORMATS[up]


def compare(case) -> str:
    """Check one case against the reference; return what kind of run it was."""
    A, P, r, tau, ug, up = case
    got, kind = outcome(pgmres_left, A, P, r, tau, ug, up)
    seen = set()
    want, want_kind = outcome(reference_pgmres_left, A, P, r, tau, ug, up, seen=seen)
    if seen or want_kind in ("overflow", "nonfinite"):
        assert kind == "overflow" and got[0] == PrecisionOverflowSignal.__name__, (got, want)
        if seen:
            assert got[1] == f"overflow in the GMRES working precision ({ug.name})"
    else:
        assert got == want
    return kind


def test_pgmres_left_equals_emulated_reference():
    kinds = Counter()

    @settings(max_examples=400, deadline=None)
    @given(gmres_inputs())
    # half GMRES on diag(3e3, 6e3, 9e3): the first Arnoldi norm overflows half
    @example((SparseMatrix.from_dense(np.diag([3e3, 6e3, 9e3])), None, np.ones(3),
              1e-4, HALF, HALF))
    # the first Givens denominator overflows half: it used to read as a zero residual
    @example((SparseMatrix.from_dense(np.array([[300.0, 1.0], [0.0, 300.0]])), None, np.ones(2),
              1e-3, HALF, DOUBLE))
    # a zero first column: the first Arnoldi vector and its norm are zero
    @example((SparseMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 1.0]])), None, np.array([1.0, 0.0]),
              1e-8, SINGLE, DOUBLE))
    def every_case(case):
        kinds[compare(case)] += 1

    every_case()
    assert set(kinds) == {"converged", "capped", "breakdown", "overflow"}, kinds
