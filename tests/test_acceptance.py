"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria tied to the published benchmark matrices skip with an explicit
message when the Matrix Market files are not present (they are not
redistributable with this repository); everything invariant-based runs on
the shipped synthetic suite.  Place the benchmark files in
$SPAI_IR_MATRIX_DIR to enable the full set.
"""

import json
import math

import numpy as np
import pytest

from conftest import load_named, load_synthetic, random_dd_sparse
from spai_ir.analysis import check_bounds, cond2_transpose, feasible, kappa_inf, kappa_inf_product
from spai_ir.krylov import pgmres_left
from spai_ir.precision import DOUBLE, HALF, SINGLE, Precision
from spai_ir.reference import MATRICES, SYNTHETIC, find_matrix
from spai_ir.spai import SpaiParams, build_left_preconditioner, build_spai
from spai_ir.sparse import SparseMatrix, column_scale, extract_submatrix, shadow
from spai_ir.tables import run_table, solve_system

EPS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)


def _available_named():
    return [name for name in MATRICES if find_matrix(name) is not None]


def _shipped():
    """Every matrix shipped or supplied: synthetic suite plus named files."""
    mats = [(name, load_synthetic(name)) for name in sorted(SYNTHETIC)]
    mats += [(name, load_named(name)) for name in _available_named()]
    return mats


def _sig2(x: float) -> float:
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x / 10**exp, 1) * 10**exp


# ---------------------------------------------------------------------------


def test_criterion_1_bound_suite():
    """Hard bound suite over the eps grid for half and single builds."""
    checked = 0
    for name, A in _shipped():
        cond2_at = cond2_transpose(A)
        for uf in (HALF, SINGLE):
            for eps in EPS_GRID:
                if not feasible(uf, cond2_at, eps):
                    continue  # feasibility constraint not met; out of scope
                pre = build_left_preconditioner(A, SpaiParams(eps=eps, uf=uf))
                assert pre.all_satisfied, (name, uf.name, eps, pre.stats_dict())
                rep = check_bounds(A, pre)  # raises on a bound violation
                assert rep.norm_I_minus_PA <= rep.bound_2n_eps
                assert rep.dist_to_inverse <= rep.dist_bound
                checked += 1
    assert checked > 0
    print(f"\nACCEPTANCE 1 (bound suite): PASS - {checked} feasible (matrix, eps, uf) cells, "
          "all columns satisfied, both hard bounds hold")


def test_criterion_2_matrix_statistics():
    """Published condition statistics reproduced to two significant figures."""
    names = _available_named()
    if not names:
        pytest.skip("criterion 2 needs the benchmark matrices (none found)")
    results = []
    for name in names:
        A = load_named(name)
        meta = MATRICES[name]
        assert (A.n_rows, A.nnz) == (meta["n"], meta["nnz"]), f"{name}: wrong file content"
        got_k = kappa_inf(A)
        got_c = cond2_transpose(A)
        for got, want, label in ((got_k, meta["kappa_inf"], "kappa_inf"),
                                 (got_c, meta["cond2_t"], "cond2_t")):
            agree = _sig2(got) == _sig2(want) or abs(got - want) <= 0.05 * abs(want)
            assert agree, f"{name} {label}: computed {got:.4e}, published {want:.1e}"
        results.append(name)
    suffix = "" if len(results) == len(MATRICES) else f" ({len(MATRICES) - len(results)} files absent)"
    print(f"\nACCEPTANCE 2 (matrix statistics): PASS - {len(results)} matrices to 2 significant figures{suffix}")


def _check_table(table: str, u_bits: float):
    rows = run_table(table, solvers={"spai", "none"}, with_kappa=False)
    present = [r for r in rows if r["status"] == "ok"]
    if not present:
        pytest.skip(f"criterion table {table} needs the benchmark matrices (none found)")
    for r in present:
        n = MATRICES[r["matrix"]]["n"]
        assert r["converged"], r
        assert r["ferr"] <= 100 * n * u_bits, r
        assert r["nbe"] <= 100 * n * u_bits, r
        if r["precond"] == "spai":
            assert r["nnz_ok"], f"nnz outside 15%: {r}"
        assert r["iters_ok"], f"iterations outside 25%: {r}"
    return rows, present


def test_criterion_3_table_sdq():
    """(single, double, quad) golden rows within the stated bands."""
    rows, present = _check_table("t4", 2.0**-53)
    print(f"\nACCEPTANCE 3 (table sdq): PASS - {len(present)}/{len(rows)} rows in band "
          "(nnz 15%, iterations 25%, errors at working accuracy)")


def test_criterion_4_table_hsd():
    """(half, single, double) golden rows within the stated bands."""
    rows, present = _check_table("t5", 2.0**-24)
    print(f"\nACCEPTANCE 4 (table hsd): PASS - {len(present)}/{len(rows)} rows in band")


def test_criterion_5_half_vs_single_insensitivity():
    """Build-precision insensitivity: half and single runs nearly agree."""
    t5 = {(r["matrix"], r["eps"]): r for r in run_table("t5", solvers={"spai"}, with_kappa=False)
          if r["status"] == "ok"}
    t6 = {(r["matrix"], r["eps"]): r for r in run_table("t6", solvers={"spai"}, with_kappa=False)
          if r["status"] == "ok"}
    common = sorted(set(t5) & set(t6))
    if not common:
        pytest.skip("criterion 5 needs the benchmark matrices (none found)")
    for key in common:
        a, b = t5[key], t6[key]
        larger = max(a["total_iters"], b["total_iters"])
        assert abs(a["total_iters"] - b["total_iters"]) <= 0.25 * larger, (key, a, b)
        ref = max(a["nnz"], b["nnz"])
        assert abs(a["nnz"] - b["nnz"]) <= 0.15 * ref, (key, a, b)
    print(f"\nACCEPTANCE 5 (half vs single): PASS - {len(common)} row pairs within 25%/15%")


def kappa_ratio_unscaled(A: SparseMatrix, eps: float, uf: Precision) -> float:
    """kappa(P A) relative to the closed-form estimate (1 + 2 n eps)^2.

    Uses the plain construction on the transpose without column scaling,
    matching the conditioning-vs-eps study protocol (the scaling step
    belongs to the solver pipeline, not to this diagnostic).
    """
    pre = build_spai(A.transpose(), SpaiParams(eps=eps, uf=uf))
    P = pre.P.transpose()
    kt = kappa_inf_product(P, A)
    n = A.n_rows
    return kt / (1.0 + 2.0 * n * eps) ** 2


def test_criterion_6_conditioning_estimate_trend():
    """kappa(PA) tracks (1+2n eps)^2 within 1.5 orders of magnitude."""
    names = [n for n in ("saylr1", "steam3") if find_matrix(n) is not None]
    if not names:
        pytest.skip("criterion 6 needs saylr1 and steam3 (none found)")
    lo, hi = 10.0**-1.5, 10.0**1.5
    checked = 0
    for name in names:
        A = load_named(name)
        for uf in (SINGLE, DOUBLE):
            for eps in EPS_GRID:
                ratio = kappa_ratio_unscaled(A, eps, uf)
                assert lo <= ratio <= hi, (name, uf.name, eps, ratio)
                checked += 1
    print(f"\nACCEPTANCE 6 (conditioning trend): PASS - {checked} grid cells in [1e-1.5, 1e1.5]")


def test_criterion_7_oracle_equivalence():
    """Columns match the dense least-squares oracle; scores match minimization."""
    from test_spai import golden_section_rho, lstsq_oracle, rho_one

    rng = np.random.RandomState(777)
    uf = SINGLE
    cols_checked = 0
    for trial in range(50):
        n = int(rng.randint(5, 21))
        dense = random_dd_sparse(rng, n)
        At = SparseMatrix.from_dense(dense).transpose()
        pre = build_spai(At, SpaiParams(eps=0.3, uf=uf))
        B = At.rounded(uf)
        for k in range(n):
            rows, vals = pre.P.col(k)
            Ik = shadow(B, rows)
            Abar = extract_submatrix(B, Ik, rows)
            m_star = lstsq_oracle(Abar, (Ik == k).astype(float))
            kappa = np.linalg.cond(Abar)
            tol = 10 * n * uf.unit_roundoff * kappa
            denom = np.linalg.norm(m_star)
            if denom == 0:
                continue
            assert np.linalg.norm(vals - m_star) <= tol * denom, (trial, k)
            cols_checked += 1
    rng2 = np.random.RandomState(9)
    for _ in range(50):
        s, a = rng2.randn(5), rng2.randn(5)
        assert rho_one(s, a, DOUBLE) == pytest.approx(golden_section_rho(s, a), rel=1e-8, abs=1e-8)
    print(f"\nACCEPTANCE 7 (oracle equivalence): PASS - {cols_checked} columns vs extended-precision "
          "least squares, 50 scores vs scalar minimization")


def test_criterion_8_gmres_sanity(rng):
    """Exact-inverse preconditioning solves in one iteration; diagonal systems in at most n."""
    dense = rng.randn(5, 5) + 8 * np.eye(5)
    A = SparseMatrix.from_dense(dense)
    P = SparseMatrix.from_dense(np.linalg.inv(dense))
    r = rng.randn(5)
    d, rep = pgmres_left(A, P, r, 1e-8, DOUBLE, DOUBLE)
    assert rep.iters == 1 and rep.converged

    for n in (5, 12, 20):
        D = SparseMatrix.from_dense(np.diag(np.arange(1.0, n + 1.0)))
        r = rng.randn(n)
        d, rep = pgmres_left(D, None, r, 1e-12, DOUBLE, DOUBLE)
        want = r / np.arange(1.0, n + 1.0)
        assert rep.iters <= n
        assert np.abs(d - want).max() <= 1e-10 * np.abs(want).max()
    print("\nACCEPTANCE 8 (gmres sanity): PASS - exact inverse 1 iteration, diagonals within n")


def test_criterion_9_determinism():
    """Byte-identical reports on repetition; column order never matters."""
    # (a) repeated end-to-end runs produce byte-identical JSON
    names = _available_named()
    name = "cage5" if "cage5" in names else "band_asym_120"
    A = load_named(name) if name in MATRICES else load_synthetic(name)

    def run_once():
        out = solve_system(A, name, "spai", HALF, SINGLE, DOUBLE, eps=0.5, tau=1e-4)
        record = {"report": out.report.to_dict(), "kappa_tilde": out.kappa_tilde, "x": out.x.tolist()}
        return json.dumps(record, sort_keys=True)

    assert run_once() == run_once()

    # (b) batch of one vs all columns in lockstep: bit-identical build of
    # the scaled transpose that build_left_preconditioner solves
    from test_spai import assert_matches_reference

    for mat_name in ("band_asym_120", "conv_diff_225"):
        scaled, _ = column_scale(load_synthetic(mat_name).transpose())
        assert_matches_reference(scaled, SpaiParams(eps=0.3, uf=HALF))
    print(f"\nACCEPTANCE 9 (determinism): PASS - repeated {name} run byte-identical, "
          "lockstep build bit-identical to column-by-column")
