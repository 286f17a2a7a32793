"""Property tests: the Householder state carried across SPAI rounds gives the
bits of a fresh factorization in arrival order.

Each round of ``build_spai`` extends every live column's stored
factorization by the rows and columns its block gained, in arrival order:
the stored reflectors are applied to the new columns only, and the
factorization continues from the old width.  A fresh factorization of the
whole block in the same order must give the same solution, residual and
statistics byte for byte; only the signs of zeros inside the factored block
W (R, the reflectors and Q^T e) may differ.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import masked_norm2
from test_spai import assert_matches_reference
from spai_ir.precision import DOUBLE, HALF, SINGLE, quiet
from spai_ir.spai import SpaiParams, _back_substitute, _extend_qr, _Qr, _residual
from spai_ir.sparse import SparseMatrix

PRECISIONS = {"half": HALF, "single": SINGLE, "double": DOUBLE}


@st.composite
def grown_blocks(draw):
    """A batch of blocks, each grown once in arrival order: ``m0`` old rows
    and ``p0`` old columns, then new rows and new columns, the old columns
    zero in the new rows; e is a unit vector on an old row.  Some blocks
    are scaled to overflow half or single, some get a zero or repeated
    column."""
    uf = PRECISIONS[draw(st.sampled_from(sorted(PRECISIONS)))]
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    items = []
    for _ in range(draw(st.integers(1, 5))):
        m0 = int(rng.randint(1, 9))
        p0 = int(rng.randint(1, m0 + 1))
        m = m0 + int(rng.randint(0, 5))
        p = p0 + int(rng.randint(0, min(4, m - p0) + 1))
        A = rng.randn(m, p) * (rng.rand(m, p) < 0.7)
        A[m0:, :p0] = 0.0
        kind = draw(st.sampled_from(["plain", "plain", "huge", "zero_column", "repeated_column"]))
        if kind == "huge":
            A *= 10.0 ** rng.randint(2, 40)
        elif kind == "zero_column":
            A[:, rng.randint(p)] = 0.0
        elif kind == "repeated_column" and p > p0:
            A[:m0, -1] = A[:m0, 0]
        if uf.dtype is not None:
            with np.errstate(over="ignore"):
                A = A.astype(uf.dtype).astype(np.float64)
        e = np.zeros(m)
        e[rng.randint(m0)] = 1.0
        items.append((A, e, m0, p0))
    return uf, items


def padded(arrays, shape):
    out = np.zeros((len(arrays),) + shape)
    for i, a in enumerate(arrays):
        out[(i,) + tuple(slice(0, s) for s in a.shape)] = a
    return out


def same_values(a, b):
    """Equal as numbers, NaN equal to NaN and -0 equal to +0."""
    return np.array_equal(a, b, equal_nan=True)


@quiet
def check_carried_equals_fresh(uf, items):
    m0 = np.array([m0 for _, _, m0, _ in items])
    p0 = np.array([p0 for _, _, _, p0 in items])
    m = np.array([A.shape[0] for A, _, _, _ in items])
    p = np.array([A.shape[1] for A, _, _, _ in items])
    M, P, N = m.max(), p.max(), len(items)
    old = padded([A[:m0_, :p0_] for (A, _, m0_, p0_) in items], (M, P))
    e = padded([e for _, e, _, _ in items], (M,))
    first, deficient = _extend_qr(_Qr.empty(N, uf), old, e, m0, p0, uf)
    mbar = _back_substitute(first, uf)
    sbar = _residual(old, e, mbar, m0, p0, uf)
    # a column goes on to the next round only when its solve was finite
    finite = np.isfinite(mbar).all(axis=1) & np.isfinite(sbar).all(axis=1)
    go = np.flatnonzero(~deficient & finite & np.isfinite(masked_norm2(sbar, m0, uf)))
    if not go.size:
        return
    whole = padded([items[i][0] for i in go], (M, P))
    new = padded([items[i][0][:, p0[i]:] for i in go], (M, P))
    carried, c_def = _extend_qr(first.take(go), new, e[go], m[go], p[go], uf)
    fresh, f_def = _extend_qr(_Qr.empty(go.size, uf), whole, e[go], m[go], p[go], uf)
    assert c_def.tolist() == f_def.tolist()
    c_m, f_m = _back_substitute(carried, uf), _back_substitute(fresh, uf)
    for k, i in enumerate(go):
        if f_def[k]:
            continue
        mi, pi = m[i], p[i]
        assert same_values(carried.W[k, :mi, :pi], fresh.W[k, :mi, :pi]), (k, i)
        assert same_values(carried.qte[k, :mi], fresh.qte[k, :mi]), (k, i)
        assert carried.rdiag[k, :pi].tobytes() == fresh.rdiag[k, :pi].tobytes()
        assert same_values(c_m[k], f_m[k])
        c_s = _residual(whole[k : k + 1], e[i : i + 1], c_m[k : k + 1], m[i : i + 1], p[i : i + 1], uf)
        f_s = _residual(whole[k : k + 1], e[i : i + 1], f_m[k : k + 1], m[i : i + 1], p[i : i + 1], uf)
        assert c_s.tobytes() == f_s.tobytes()


@settings(max_examples=200, deadline=None)
@given(grown_blocks())
def test_carried_factorization_equals_a_fresh_one(case):
    check_carried_equals_fresh(*case)


def wild(uf, seed, eps, alpha, beta):
    """A sparse matrix with a nonzero diagonal whose entries span many
    decades, so that in half or single some columns overflow, lose rank or
    stagnate, and the build's settings."""
    rng = np.random.RandomState(seed)
    n = int(rng.randint(2, 25))
    span = 6 if uf is HALF else 24
    d = rng.randn(n, n) * (rng.rand(n, n) < 0.3) * 10.0 ** rng.randint(-span, span + 1, size=(n, n))
    np.fill_diagonal(d, (1 + rng.rand(n)) * 10.0 ** rng.randint(-span // 2, span // 2 + 1, size=n))
    return SparseMatrix.from_dense(d), SpaiParams(eps=eps, alpha=alpha, beta=beta, uf=uf)


SETTINGS = [(0.05, None, 8), (0.3, 2, 1), (0.1, None, 3)]


@st.composite
def wild_builds(draw):
    return wild(draw(st.sampled_from([HALF, SINGLE])), draw(st.integers(0, 2**32 - 1)),
                *draw(st.sampled_from(SETTINGS)))


@settings(max_examples=60, deadline=None)
@given(wild_builds())
# overflowed and stagnated columns, then rank-deficient ones, in half and in single
@example(wild(HALF, 0, 0.05, None, 8))
@example(wild(HALF, 108, 0.3, 2, 1))
@example(wild(SINGLE, 0, 0.05, None, 8))
@example(wild(SINGLE, 24, 0.05, None, 8))
def test_carried_build_equals_a_fresh_arrival_order_build(case):
    A, params = case
    try:
        assert_matches_reference(A, params)
    except ValueError as exc:  # a diagonal entry rounded to zero
        assert "zero diagonal" in str(exc)


def test_examples_reach_every_abnormal_status():
    for uf, cases in ((HALF, [(0, 0.05, None, 8), (108, 0.3, 2, 1)]),
                      (SINGLE, [(0, 0.05, None, 8), (24, 0.05, None, 8)])):
        seen = set()
        for case in cases:
            seen.update(assert_matches_reference(*wild(uf, *case)).col_status)
        assert seen == {"ok", "overflow", "stagnated", "rank_deficient"}, uf.name
