import math

import numpy as np
import pytest

from conftest import random_dd_sparse
from spai_ir.precision import DOUBLE, HALF, SINGLE, SingularMatrixError, fl, fl_norm2, quiet
from spai_ir.spai import (
    RankDeficiencySignal,
    SpaiParams,
    augment_pattern,
    build_left_preconditioner,
    build_spai,
    rho_scores,
    solve_column_ls,
)
from spai_ir.sparse import SparseMatrix, extract_submatrix, shadow


# ---- independent oracles ----------------------------------------------------


def lstsq_oracle(A, b, dps=50):
    """Least-squares solution via exact normal equations at high precision.

    At 50 digits the squared conditioning of the normal equations is
    irrelevant for the tolerances checked here, and pivoted LU avoids the
    structural zero-pivot quirk of mpmath's QR.
    """
    import mpmath

    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in np.asarray(A)])
        rhs = mpmath.matrix([mpmath.mpf(v) for v in np.asarray(b)])
        sol = mpmath.lu_solve(M.T * M, M.T * rhs)
        return np.array([float(v) for v in sol])


def golden_section_rho(s, a):
    """min over mu of ||s + mu a||_2 by golden-section search (independent path)."""
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)

    def f(mu):
        return np.linalg.norm(s + mu * a)

    lo, hi = -1e3, 1e3
    invphi = (math.sqrt(5) - 1) / 2
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    for _ in range(200):
        if f(c) < f(d):
            hi = d
        else:
            lo = c
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
    return f((lo + hi) / 2)


# ---- solve_column_ls ---------------------------------------------------------


def test_ls_scalar_case():
    m, s = solve_column_ls(np.array([[1.0]]), np.array([1.0]), DOUBLE)
    assert m == np.array([1.0]) and s == np.array([0.0])


def test_ls_orthogonal_residual():
    # two columns of the 3x3 identity cannot reach e3 at all
    Abar = np.eye(3)[:, :2]
    ebar = np.array([0.0, 0.0, 1.0])
    m, s = solve_column_ls(Abar, ebar, DOUBLE)
    assert np.allclose(m, 0.0)
    assert np.linalg.norm(s) == pytest.approx(1.0)


@pytest.mark.parametrize("uf", [SINGLE, DOUBLE])
def test_ls_matches_extended_precision_oracle(rng, uf):
    for _ in range(10):
        A = rng.randn(6, 3)
        b = rng.randn(6)
        Ar = fl(A, uf)
        br = fl(b, uf)
        m, s = solve_column_ls(Ar, br, uf)
        m_star = lstsq_oracle(Ar, br)
        kappa = np.linalg.cond(Ar)
        denom = np.linalg.norm(m_star)
        assert np.linalg.norm(m - m_star) <= 40 * 6 * uf.unit_roundoff * kappa * denom
        # returned residual is consistent with its definition
        assert np.allclose(s, Ar @ m - br, atol=20 * uf.unit_roundoff * np.abs(Ar @ m).max() + 1e-30)


def test_ls_rank_deficient_signal():
    Abar = np.zeros((3, 2))
    Abar[:, 0] = [1.0, 2.0, 1.0]  # second column zero
    with pytest.raises(RankDeficiencySignal):
        solve_column_ls(Abar, np.ones(3), DOUBLE)
    with pytest.raises(RankDeficiencySignal):
        solve_column_ls(np.ones((2, 3)), np.ones(2), DOUBLE)  # wide block


# ---- rho_scores --------------------------------------------------------------


def rho_one(s, a, uf):
    """The score of one candidate ``a`` against the residual ``s``: :func:`rho_scores` on a batch of one."""
    s = np.asarray(s, dtype=np.float64)
    return rho_scores(s[None], np.asarray(a, dtype=np.float64)[None, :, None], uf)[0, 0]


def test_rho_orthogonal_keeps_norm(rng):
    s = np.array([1.0, 0.0, 0.0])
    a = np.array([0.0, 2.0, 0.0])
    assert rho_one(s, a, DOUBLE) == pytest.approx(np.linalg.norm(s))


def test_rho_parallel_removes_all():
    s = np.array([0.5, -1.0, 2.0])
    assert rho_one(s, 3.0 * s, DOUBLE) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("uf", [HALF, SINGLE, DOUBLE])
def test_rho_batch_items_score_as_alone(rng, uf):
    m = np.array([1, 4, 6, 3])
    sbar = fl(rng.randn(4, 6), uf) * (np.arange(6) < m[:, None])
    C = fl(rng.randn(4, 6, 5), uf) * (np.arange(6) < m[:, None])[:, :, None]
    got = rho_scores(sbar, C, uf)
    for i, mi in enumerate(m):
        for j in range(5):
            assert got[i, j].tobytes() == rho_one(sbar[i, :mi], C[i, :mi, j], uf).tobytes(), (i, j)


def test_rho_underflowing_candidate_scores_no_reduction():
    # in half, candidate 1 is about 1e-5 on I = {0, 1}, so c.c and (s.c)^2
    # underflow: it scores ||s||, and candidate 2 (score 0.5) still joins J
    B = SparseMatrix.from_dense(fl(np.array([[1, 1e-5, 0.5], [0.5, 1e-5, 0], [0, 1, 1]]), HALF))
    s = np.array([0.25, -0.5])
    assert rho_one(s, B.to_dense()[:2, 1], HALF) == fl_norm2(s, HALF)
    got = augment_pattern(B, 0, np.array([0, 1]), np.array([0]), s, beta=8, uf=HALF)
    assert got.tolist() == [0, 2]


def test_rho_matches_minimization_oracle(rng):
    for _ in range(25):
        s = rng.randn(5)
        a = rng.randn(5)
        got = rho_one(s, a, DOUBLE)
        want = golden_section_rho(s, a)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


# ---- augment_pattern ----------------------------------------------------------


def brute_force_augment(dense, k, Ik, Jk, sbar, beta, uf):
    """Reference selection: score all candidates, filter by mean, take beta."""
    n = dense.shape[0]
    Lk = sorted(set(Ik.tolist()) | {k})
    cand = sorted(
        {j for ell in Lk for j in np.nonzero(dense[ell])[0]} - set(Jk.tolist())
    )
    scored = []
    for j in cand:
        col = dense[np.ix_(Ik, [j])].ravel()
        if not col.any():
            continue
        scored.append((rho_one(sbar, col, uf), j))
    if not scored:
        return Jk
    mean = np.mean([r for r, _ in scored])  # reference mean in double
    scored.sort()
    chosen = [j for r, j in scored[:beta] if r <= mean]
    return np.unique(np.concatenate([Jk, chosen])) if chosen else Jk


def test_augment_all_ties_admits_in_index_order(rng):
    # identity block: every candidate is orthogonal to sbar, all scores equal
    dense = np.eye(8)
    dense[0, :] = 1.0  # row 0 makes all columns candidates
    A = SparseMatrix.from_dense(dense)
    Jk = np.array([0])
    Ik = shadow(A, Jk)
    sbar = (Ik == 5).astype(float)  # orthogonal to candidate columns on Ik
    got = augment_pattern(A, 0, Ik, Jk, sbar, beta=3, uf=DOUBLE)
    added = sorted(set(got.tolist()) - {0})
    assert added == [1, 2, 3]  # smallest indices first on ties


def test_augment_dominant_candidate_first(rng):
    dense = np.zeros((6, 6))
    dense[:, 0] = [1, 1, 1, 0, 0, 0]
    sbar = np.array([0.3, -0.4, 0.2])
    dense[:3, 4] = sbar  # candidate 4 parallel to the residual: rho = 0
    dense[:3, 5] = [0.5, 0.5, 0.1]
    dense[0, 1] = 1e-3
    A = SparseMatrix.from_dense(dense)
    Jk = np.array([0])
    Ik = np.array([0, 1, 2])
    got = augment_pattern(A, 0, Ik, Jk, sbar, beta=1, uf=DOUBLE)
    assert 4 in got.tolist()


def test_augment_matches_brute_force(rng):
    for trial in range(20):
        dense = rng.randn(8, 8) * (rng.rand(8, 8) < 0.5)
        np.fill_diagonal(dense, 1.0 + rng.rand(8))
        A = SparseMatrix.from_dense(dense)
        k = int(rng.randint(8))
        Jk = np.array([k])
        Ik = shadow(A, Jk)
        sbar = rng.randn(Ik.size)
        got = augment_pattern(A, k, Ik, Jk, sbar, beta=3, uf=DOUBLE)
        want = brute_force_augment(dense, k, Ik, Jk, sbar, 3, DOUBLE)
        assert np.array_equal(got, want), f"trial {trial}"


def test_augment_no_candidates_returns_unchanged():
    A = SparseMatrix.identity(4)
    Jk = np.array([2])
    Ik = shadow(A, Jk)
    out = augment_pattern(A, 2, Ik, Jk, np.array([0.5]), beta=2, uf=DOUBLE)
    assert np.array_equal(out, Jk)


# ---- build_spai / build_left_preconditioner -----------------------------------


def test_build_identity():
    I8 = SparseMatrix.identity(8)
    pre = build_spai(I8, SpaiParams(eps=1.0, uf=HALF))
    assert np.array_equal(pre.P.to_dense(), np.eye(8))
    assert np.all(pre.col_resnorm == 0.0)
    assert np.all(pre.col_rounds == 0)
    assert pre.all_satisfied


def test_build_zero_diagonal_rejected():
    A = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        build_spai(A, SpaiParams(eps=0.3, uf=DOUBLE))


def test_params_reject_a_negative_alpha():
    with pytest.raises(ValueError, match="^alpha must be nonnegative$"):
        SpaiParams(eps=0.3, alpha=-1, uf=HALF)


@pytest.mark.parametrize("seed", range(8))
def test_build_zero_diagonal_names_the_first_missing_index(seed):
    # reference: the loop over columns that the array test in build_spai replaced;
    # a diagonal of 1e-9 is stored but rounds to zero in half
    rng = np.random.default_rng(seed)
    n = 7
    dense = np.where(rng.random((n, n)) < 0.4, rng.uniform(1.0, 2.0, (n, n)), 0.0)
    dense[np.diag_indices(n)] = rng.choice([0.0, 1e-9, 1.5], n, p=[0.15, 0.15, 0.7])
    A = SparseMatrix.from_dense(dense)
    # an empty row or column (seed 6 draws an empty column 6) is refused at the gate first
    empty = [f"{kind} {i}" for kind, lines in (("row", dense), ("column", dense.T))
             for i in range(n) if not lines[i].any()]
    if empty:
        with pytest.raises(SingularMatrixError, match=rf"^matrix A is singular: {empty[0]} has no nonzero entry$"):
            build_spai(A, SpaiParams(eps=0.3, uf=HALF))
        return
    B = A.rounded(HALF)
    missing = [j for j in range(n) if not np.any(B.col(j)[0] == j)]
    if not missing:
        build_spai(A, SpaiParams(eps=0.3, uf=HALF))
        return
    with pytest.raises(ValueError, match=rf"^zero diagonal at index {missing[0]}: "):
        build_spai(A, SpaiParams(eps=0.3, uf=HALF))


def test_build_diagonal_inverse():
    A = SparseMatrix.from_dense(np.diag(np.full(6, 2.0)))
    pre = build_left_preconditioner(A, SpaiParams(eps=0.1, uf=HALF))
    assert np.allclose(pre.P.to_dense(), np.diag(np.full(6, 0.5)), rtol=2.0**-11)


def test_final_columns_match_dense_ls_on_final_pattern(rng):
    # tridiagonal system driven to tiny eps: every solved column must agree
    # with the high-precision least-squares solution on its final pattern
    n = 4
    dense = np.diag(np.full(n, 2.5)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -0.7), -1)
    A = SparseMatrix.from_dense(dense)
    params = SpaiParams(eps=1e-8, alpha=math.ceil(n / 8) + n, uf=SINGLE)
    pre = build_spai(A, params)
    B = A.rounded(SINGLE)
    for k in range(n):
        rows, vals = pre.P.col(k)
        Ik = shadow(B, rows)
        Abar = extract_submatrix(B, Ik, rows)
        ebar = (Ik == k).astype(float)
        m_star = lstsq_oracle(Abar, ebar)
        kappa = np.linalg.cond(Abar)
        assert np.linalg.norm(vals - m_star) <= 10 * n * SINGLE.unit_roundoff * kappa * np.linalg.norm(m_star)


def test_satisfied_columns_meet_two_eps_in_double(rng):
    dense = random_dd_sparse(rng, 24)
    A = SparseMatrix.from_dense(dense).transpose()
    eps = 0.25
    pre = build_spai(A, SpaiParams(eps=eps, uf=HALF))
    B = A.rounded(HALF).to_dense()
    for k in range(24):
        if not pre.satisfied[k]:
            continue
        rows, vals = pre.P.col(k)
        ek = np.zeros(24)
        ek[k] = 1.0
        resid = ek - B[:, rows] @ vals
        assert np.linalg.norm(resid) <= 2 * eps
        assert pre.col_resnorm[k] <= eps


def test_resnorm_monotone_across_rounds(rng):
    # drive one column by hand through the public operations and watch the
    # residual norm fall (up to build-precision slack) as the pattern grows
    dense = random_dd_sparse(rng, 16)
    A = SparseMatrix.from_dense(dense).transpose()
    B = A.rounded(SINGLE)
    B_t = B.transpose()
    uf = SINGLE
    k = 3
    Jk = np.array([k])
    norms = []
    for _ in range(5):
        Ik = shadow(B, Jk)
        Abar = extract_submatrix(B, Ik, Jk)
        mbar, sbar = solve_column_ls(Abar, (Ik == k).astype(float), uf)
        norms.append(np.linalg.norm(sbar))
        grown = augment_pattern(B, k, Ik, Jk, sbar, beta=4, uf=uf, A_t=B_t)
        if grown.size == Jk.size:
            break
        Jk = grown
    slack = 4 * 16 * uf.unit_roundoff
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1 + slack)


def arrival_order(prev, new):
    """The indices ``prev`` in their order, then those of ``new`` not among them, ascending."""
    return np.concatenate([prev, np.setdiff1d(new, prev)]).astype(np.int64)


def ascending_residual(Abar, mbar, ebar, uf):
    """``Abar @ mbar - ebar`` with every operation rounded to ``uf``, the
    columns accumulated left to right."""
    y = np.zeros(Abar.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(Abar.shape[1]):
            y = fl(y + fl(Abar[:, c] * mbar[c], uf), uf)
        return fl(y - ebar, uf)


@quiet
def reference_build_spai(At, params):
    """Column-by-column adaptive loop through the public one-column kernels.

    The batch-of-one reference for the lockstep build: returns the arrays of
    P and the per-column statistics that ``build_spai`` must reproduce bit
    for bit.  Each round factors the column's block from scratch with its
    rows and columns in arrival order (the previous round's in their order,
    then the new ones ascending); the residual, the scores and the pattern
    use the ascending order.
    """
    n, uf = At.n_rows, params.uf
    B = At.rounded(uf)
    B_t = B.transpose()
    dense = B.to_dense()
    alpha = params.resolved_alpha(n)
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    resnorm = np.full(n, np.inf)
    rounds = np.zeros(n, dtype=np.int64)
    satisfied = np.zeros(n, dtype=bool)
    status = ["ok"] * n
    for k in range(n):
        solved = None
        Jk, Ik = np.array([k]), np.empty(0, np.int64)  # in arrival order
        for step in range(alpha + 1):
            Js = np.sort(Jk)
            Ik = arrival_order(Ik, shadow(B, Js))
            Is = np.sort(Ik)
            if Ik.size == 0:
                status[k] = "stagnated"
                break
            try:
                mbar, _ = solve_column_ls(dense[np.ix_(Ik, Jk)], (Ik == k).astype(float), uf)
            except RankDeficiencySignal:
                status[k] = "rank_deficient"
                break
            mbar = mbar[np.argsort(Jk)]
            sbar = ascending_residual(extract_submatrix(B, Is, Js), mbar, (Is == k).astype(float), uf)
            norm = fl_norm2(sbar, uf)
            if not (np.all(np.isfinite(mbar)) and np.all(np.isfinite(sbar)) and math.isfinite(norm)):
                status[k] = "overflow"
                break
            solved, resnorm[k] = (Js, mbar), norm
            if norm <= params.eps:
                satisfied[k] = True
                break
            if step == alpha:
                break
            grown = augment_pattern(B, k, Is, Js, sbar, params.beta, uf, A_t=B_t)
            if grown.size == Jk.size:
                status[k] = "stagnated"
                break
            Jk = arrival_order(Jk, grown)
            rounds[k] += 1
        if solved is not None:
            rows.append(solved[0])
            cols.append(np.full(solved[0].size, k))
            vals.append(solved[1])
    P = SparseMatrix.from_coo(n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    return P, resnorm, rounds, satisfied, status


def assert_matches_reference(At, params):
    """build_spai (all columns in lockstep) equals the column-by-column reference bit for bit."""
    pre = build_spai(At, params)
    P, resnorm, rounds, satisfied, status = reference_build_spai(At, params)
    for got, want in ((pre.P.indptr, P.indptr), (pre.P.indices, P.indices), (pre.P.data, P.data),
                      (pre.col_resnorm, resnorm), (pre.col_rounds, rounds), (pre.satisfied, satisfied)):
        assert got.tobytes() == want.tobytes()
    assert pre.col_status == status
    return pre


def test_build_matches_column_by_column_reference(rng):
    # ordinary builds, plus unscaled inputs of wide dynamic range whose
    # columns overflow, stagnate or lose rank in half precision
    seen = set()
    dense = random_dd_sparse(rng, 40)
    for params in (SpaiParams(eps=0.3, uf=HALF), SpaiParams(eps=0.1, uf=SINGLE, beta=3),
                   SpaiParams(eps=0.2, uf=DOUBLE)):
        seen.update(assert_matches_reference(SparseMatrix.from_dense(dense).transpose(), params).col_status)
    wild = np.random.RandomState(5)
    for trial in range(6):
        n = int(wild.randint(5, 30))
        d = wild.randn(n, n) * (wild.rand(n, n) < 0.3) * 10.0 ** wild.randint(-6, 7, size=(n, n))
        np.fill_diagonal(d, (1 + wild.rand(n)) * 10.0 ** wild.randint(-4, 5, size=n))
        for params in (SpaiParams(eps=0.05, uf=HALF), SpaiParams(eps=0.3, alpha=2, beta=1, uf=HALF),
                       SpaiParams(eps=0.2, uf=SINGLE)):
            seen.update(assert_matches_reference(SparseMatrix.from_dense(d), params).col_status)
    assert seen == {"ok", "overflow", "stagnated", "rank_deficient"}


def test_nnz_at_least_n_with_identity_pattern(rng):
    dense = random_dd_sparse(rng, 20)
    A = SparseMatrix.from_dense(dense)
    pre = build_left_preconditioner(A, SpaiParams(eps=0.4, uf=SINGLE))
    assert pre.nnz >= 20
