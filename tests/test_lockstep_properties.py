"""Property tests for the padding argument behind the lockstep SPAI build.

A batch pads every item to a common shape, and every sum runs over the
whole padded line: ``fl_sum`` takes no per-line size.  That is bit-exact
only if each padded term is the identity -0, or cannot move a bit, at each
call site, and if an item solved inside a batch of other blocks equals the
same block solved on its own.  Each call site's sums are compared here, as
raw bytes, with ``masked_sum`` from ``conftest``, which sums each line
alone, cut to its own size, without ``fl_sum``: the back substitution,
the mean score of ``augment_patterns`` and ``build_spai``'s column norms.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import masked_dot, masked_norm2, masked_sum, reference_rho_scores, reference_solve_ls, same_bits
from spai_ir import spai
from spai_ir.precision import DOUBLE, HALF, SINGLE, fl, fl_sum, quiet
from spai_ir.spai import (RankDeficiencySignal, SpaiParams, _back_substitute, _extend_qr, _Qr, augment_pattern,
                          augment_patterns, build_spai, rho_scores, solve_column_ls, solve_ls_batch)
from spai_ir.sparse import SparseMatrix, shadows


@pytest.mark.parametrize("p", [HALF, SINGLE, DOUBLE])
def test_fl_sum_of_negative_zeros_is_negative_zero_at_every_length(p):
    """A sum whose terms are all -0 is -0, in float64 and in the format's
    own dtype; a sum of no terms is +0."""
    for dtype in {np.float64, p.dtype or np.float64}:
        for n in range(71):
            got = fl_sum(np.full(n, -0.0, dtype), p)
            assert got == 0.0 and np.signbit(got) == (n > 0), n


@st.composite
def block_batches(draw):
    p = draw(st.sampled_from([HALF, SINGLE, DOUBLE]))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 6))
    rng = np.random.RandomState(seed)
    blocks = []
    for _ in range(count):
        m = int(rng.randint(1, 9))
        kind = draw(st.sampled_from(["tall", "wide", "zero_column", "repeated_column", "huge"]))
        cols = int(rng.randint(m + 1, m + 3)) if kind == "wide" else int(rng.randint(1, m + 1))
        A = rng.randn(m, cols) * (rng.rand(m, cols) < 0.8)
        if kind == "zero_column":
            A[:, rng.randint(cols)] = 0.0
        elif kind == "repeated_column" and cols > 1:
            A[:, -1] = A[:, 0]
        elif kind == "huge":
            A *= 10.0 ** rng.randint(2, 40)  # overflows half or single inside the solve
        with np.errstate(over="ignore"):
            A = A.astype(p.dtype).astype(np.float64) if p.dtype else A
        e = np.zeros(m)
        e[rng.randint(m)] = 1.0
        blocks.append((A, e))
    return p, blocks


@settings(max_examples=150, deadline=None)
@given(block_batches())
def test_block_solved_in_a_batch_equals_block_alone(case):
    p, blocks = case
    m = np.array([A.shape[0] for A, _ in blocks])
    q = np.array([A.shape[1] for A, _ in blocks])
    Abar = np.zeros((len(blocks), m.max(), q.max()))
    ebar = np.zeros((len(blocks), m.max()))
    for i, (A, e) in enumerate(blocks):
        Abar[i, : m[i], : q[i]] = A
        ebar[i, : m[i]] = e
    mbar, sbar, deficient = solve_ls_batch(Abar, ebar, m, q, p)
    for i, (A, e) in enumerate(blocks):
        try:
            x, s = solve_column_ls(A, e, p)
        except RankDeficiencySignal:
            assert deficient[i]
            continue
        assert not deficient[i]
        assert mbar[i, : q[i]].tobytes() == x.tobytes()
        assert sbar[i, : m[i]].tobytes() == s.tobytes()
        assert not np.any(mbar[i, q[i]:]) and not np.any(sbar[i, m[i]:])


@settings(max_examples=150, deadline=None)
@given(block_batches())
def test_batched_solve_and_scores_equal_the_float64_reference(case):
    """``solve_ls_batch`` and ``rho_scores`` give the bytes of the loop that
    computes every format in float64 and rounds each operation by ``fl``,
    whatever dtype they compute in; the block's columns serve as the
    candidates and its residual (or e, for a deficient item) as sbar."""
    p, blocks = case
    m = np.array([A.shape[0] for A, _ in blocks])
    q = np.array([A.shape[1] for A, _ in blocks])
    Abar = np.zeros((len(blocks), m.max(), q.max()))
    ebar = np.zeros((len(blocks), m.max()))
    for i, (A, e) in enumerate(blocks):
        Abar[i, : m[i], : q[i]] = A
        ebar[i, : m[i]] = e
    mbar, sbar, deficient = solve_ls_batch(Abar, ebar, m, q, p)
    want_m, want_s, want_d = reference_solve_ls(Abar, ebar, m, q, p)
    assert mbar.dtype == sbar.dtype == np.float64
    assert deficient.tolist() == want_d.tolist()
    # a deficient item's outputs mean nothing, but they keep their bits too
    assert mbar.tobytes() == want_m.tobytes() and sbar.tobytes() == want_s.tobytes()
    s = np.where(deficient[:, None], ebar, sbar)
    rho = rho_scores(s, Abar, p)
    assert rho.dtype == np.float64
    assert rho.tobytes() == reference_rho_scores(s, Abar, m, p).tobytes()


def scaled(rng, shape, uf=None):
    """Random values, a fifth of them zero, scaled by 10**k for k in -8..8,
    and rounded to ``uf`` when given: in half some overflow to inf and
    some underflow."""
    v = rng.randn(*shape) * (rng.rand(*shape) < 0.8) * 10.0 ** rng.randint(-8, 9, size=shape)
    with np.errstate(over="ignore"):
        return fl(v, uf) if uf else v


@st.composite
def padded_batches(draw):
    """A batch of least-squares blocks in half, single or double, padded to
    one shape, with items of width 0, of the batch's full width, tall and
    wide, entries scaled as :func:`scaled` does, and right-hand sides that
    are unit vectors, signed zeros only, or signed zeros and ones: a -0 in
    Q^T e is what shows the sign of a zero sum."""
    uf = draw(st.sampled_from([HALF, SINGLE, DOUBLE]))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    N, P = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    M = P + draw(st.integers(0, 3))
    m, p = np.zeros(N, np.int64), np.zeros(N, np.int64)
    Abar, ebar = np.zeros((N, M, P)), np.zeros((N, M))
    for i in range(N):
        kind = draw(st.sampled_from(["empty", "full", "tall", "wide"]))
        p[i] = {"empty": 0, "full": P}.get(kind, rng.randint(1, P + 1))
        m[i] = rng.randint(1, p[i]) if kind == "wide" and p[i] > 1 else rng.randint(max(p[i], 1), M + 1)
        Abar[i, : m[i], : p[i]] = scaled(rng, (m[i], p[i]), uf)
        rhs = draw(st.sampled_from(["unit", "zeros", "mixed"]))
        if rhs == "unit":
            ebar[i, rng.randint(m[i])] = 1.0
        else:
            ebar[i, : m[i]] = rng.choice([0.0, -0.0] + [1.0] * (rhs == "mixed"), m[i])
    return uf, Abar, ebar, m, p


@quiet
def reference_back_substitute(qr, uf) -> np.ndarray:
    """Oracle for ``_back_substitute``: each dot over the item's own row
    alone (``masked_dot``), in float64 rounded by ``fl``; +0 past each
    item's width."""
    R, qte, rdiag = (np.asarray(a, dtype=np.float64) for a in (qr.W, qr.qte, qr.rdiag))
    N, P = rdiag.shape
    mbar = np.zeros((N, P))
    for c in range(P - 1, -1, -1):
        s = masked_dot(R[:, c, c + 1 :], mbar[:, c + 1 :], np.maximum(qr.p - c - 1, 0), uf)
        mbar[:, c] = np.where(c < qr.p, fl(fl(qte[:, c] - s, uf) / rdiag[:, c], uf), 0.0)
    return mbar


# Q^T e holds -0 where these rows of signed zeros meet a reflector with
# entries of both signs.  First, a row whose terms sum to -0 (item 0, row 0):
# its padded product must be -0 as well.  Then a row with no terms (item 0,
# row 0 again, its only column the last): it must sum to +0.
ZERO_SUM = (DOUBLE, np.array([[[0.0, 1, 0], [1, 1, 0], [-3, 3, 0]], np.eye(3)]),
            np.array([[-0.0, 0, -0.0], [1, 0, 0]]), np.array([3, 3]), np.array([2, 3]))
NO_TERMS = (DOUBLE, np.array([[[1.0, 0], [-2, 0]], [[1, 2], [3, 5]]]),
            np.array([[-0.0, -0.0], [1, 0]]), np.array([2, 2]), np.array([1, 2]))


@settings(max_examples=300, deadline=None)
@given(padded_batches())
@example(ZERO_SUM)
@example(NO_TERMS)
def test_back_substitution_equals_the_masked_oracle(case):
    uf, Abar, ebar, m, p = case
    with np.errstate(all="ignore"):
        qr, _ = _extend_qr(_Qr.empty(len(m), uf), Abar, ebar, m, p, uf)
        assert same_bits(_back_substitute(qr, uf), reference_back_substitute(qr, uf))


@settings(max_examples=150, deadline=None)
@given(padded_batches())
def test_solve_ls_batch_returns_plus_zero_past_each_size(case):
    uf, Abar, ebar, m, p = case
    mbar, sbar, _ = solve_ls_batch(Abar, ebar, m, p, uf)
    for out, size in ((mbar, p), (sbar, m)):
        past = out[np.arange(out.shape[1]) >= size[:, None]]
        assert past.tobytes() == np.zeros(past.size).tobytes()


@st.composite
def augment_batches(draw):
    """A sparse matrix in half, single or double with entries scaled as
    :func:`scaled` does, and a batch of columns: each a sorted pattern J,
    its shadow I and a residual on I.  Among the columns are some whose
    pattern is every column, so that they have no candidate, and some
    with a single index, which leave the most."""
    uf = draw(st.sampled_from([HALF, SINGLE, DOUBLE]))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    D = np.where(rng.rand(n, n) < 0.4, scaled(rng, (n, n), uf), 0.0)
    np.fill_diagonal(D, 1.0)
    A = SparseMatrix.from_dense(D)
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["one", "some", "all"]))
        size = {"one": 1, "all": n}.get(kind, rng.randint(1, n + 1))
        sets.append(np.sort(rng.choice(n, size, replace=False)))
    J = (np.concatenate([[0], np.cumsum([len(j) for j in sets])]), np.concatenate(sets))
    I = shadows(A, J)
    m = np.diff(I[0])
    sbar = np.zeros((len(sets), m.max()))
    for i in range(len(sets)):
        sbar[i, : m[i]] = scaled(rng, (m[i],), uf)
    return uf, A, I, J, sbar, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(augment_batches())
def test_mean_score_equals_the_masked_oracle(case):
    """``augment_patterns``' mean score equals the mean of each column's
    real scores summed alone (a column with no candidate gets 0/0 = NaN
    either way), and every column grows as it does in a batch of one."""
    uf, A, I, J, sbar, beta = case
    seen = []

    def spy(v, p, axis=0):
        seen.append((np.array(v), fl_sum(v, p, axis=axis)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spai, "fl_sum", spy)
        grown = augment_patterns(A, I, J, sbar, beta, uf)
    (scores, got), = seen
    D, N = A.to_dense(), len(J[0]) - 1
    count = np.array([np.setdiff1d(np.flatnonzero(D[I[1][I[0][i] : I[0][i + 1]]].any(axis=0)),
                                   J[1][J[0][i] : J[0][i + 1]]).size for i in range(N)])
    with np.errstate(all="ignore"):
        assert same_bits(fl(got / count, uf), fl(masked_sum(scores, count, uf) / count, uf))
    for i in range(N):
        Ii, Ji = I[1][I[0][i] : I[0][i + 1]], J[1][J[0][i] : J[0][i + 1]]
        alone = augment_pattern(A, int(Ji[0]), Ii, Ji, sbar[i, : Ii.size], beta, uf)
        assert grown[1][grown[0][i] : grown[0][i + 1]].tolist() == alone.tolist()


@st.composite
def spai_inputs(draw):
    """A tridiagonal matrix with random fill, entries scaled as
    :func:`scaled` does but left in double for the build to round, a
    diagonal that every format holds, and a build in half, single or
    double."""
    uf = draw(st.sampled_from([HALF, SINGLE, DOUBLE]))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 16))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
    D = np.where(band | (rng.rand(n, n) < 0.1), scaled(rng, (n, n)), 0.0)
    np.fill_diagonal(D, (1.0 + rng.rand(n)) * 10.0 ** rng.randint(-4, 5, size=n))
    return SparseMatrix.from_dense(D), SpaiParams(eps=draw(st.sampled_from([0.05, 0.3])), uf=uf)


@settings(max_examples=100, deadline=None)
@given(spai_inputs())
def test_build_column_norms_equal_the_masked_oracle(case):
    """Every residual norm ``build_spai`` takes equals the norm of each
    column's residual alone, cut to the size of its shadow."""
    At, params = case
    last, checked = {}, []
    _residual, fl_norm2 = spai._residual, spai.fl_norm2

    def residual(Abar, ebar, mbar, m, p, uf):
        last.update(sbar=_residual(Abar, ebar, mbar, m, p, uf), m=np.asarray(m))
        return last["sbar"]

    def norm2(v, p, axis=0):
        got = fl_norm2(v, p, axis=axis)
        if v is last.get("sbar"):
            checked.append(same_bits(got, masked_norm2(v, last["m"], p)))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spai, "_residual", residual)
        patch.setattr(spai, "fl_norm2", norm2)
        build_spai(At, params)
    assert checked and all(checked)
