import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_synthetic
from spai_ir.cli import main
from spai_ir.precision import DOUBLE, HALF, QUAD, SINGLE
from spai_ir.refine import IrConfig
from spai_ir.spai import SpaiParams, build_left_preconditioner
from spai_ir.sparse import SparseMatrix
from spai_ir.tables import result_row, run_sweep, run_table, solve_system


def test_default_tau_convention():
    # left out, tau follows the working precision, as in `spai-ir solve`
    for u, tau in ((HALF, 1e-4), (SINGLE, 1e-4), (DOUBLE, 1e-8)):
        assert IrConfig(uf=HALF, u=u, ur=QUAD, solver="none").tau == tau
    assert IrConfig(uf=HALF, u=HALF, ur=QUAD, solver="none", tau=0.5).tau == 0.5


def test_sweep_grid_of_one_matches_direct_build():
    A = load_synthetic("band_asym_120")
    rows = run_sweep(A, "band_asym_120", [0.3], [HALF])
    assert len(rows) == 1
    direct = build_left_preconditioner(A, SpaiParams(eps=0.3, uf=HALF))
    assert rows[0]["nnz"] == direct.nnz
    assert rows[0]["status"] == "ok"
    assert rows[0]["feasible"] is True


def test_sweep_continues_past_cell_failures():
    A = load_synthetic("ident_32")
    # eps > 0 required: a bogus grid value fails in-cell, the sweep survives
    rows = run_sweep(A, "ident_32", [-1.0, 0.2], [SINGLE])
    assert rows[0]["status"].startswith("error")
    assert rows[1]["status"] == "ok"


def test_sweep_records_a_quad_cell_as_an_error_row(capsys):
    # quad cannot build a preconditioner: the cell's ValueError becomes its row
    assert main(["sweep", "--matrix", "ident_32", "--eps-grid", "0.3", "--uf-list", "q", "--json"]) == 2
    (row,) = json.loads(capsys.readouterr().out)
    assert row["status"].startswith("error: quad-emulated")


@pytest.mark.parametrize("args, status", [
    (["--beta", "0"], "error: beta must be at least 1"),
    (["--eps-grid", "0,-1"], "error: eps must be positive"),
])
def test_sweep_records_a_bad_parameter_as_error_rows_and_exits_2(capsys, args, status):
    # like a quad cell: every cell the parameter reaches is an error row, not an exit 1
    assert main(["sweep", "--matrix", "ident_32", "--uf-list", "s", *args, "--json"]) == 2
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(row["status"] == status for row in rows)


def test_sweep_lets_a_programming_error_propagate(monkeypatch):
    import spai_ir.tables as tables

    def broken(A, params):
        raise TypeError("broken build")

    monkeypatch.setattr(tables, "build_left_preconditioner", broken)
    with pytest.raises(TypeError, match="broken build"):
        run_sweep(load_synthetic("ident_32"), "ident_32", [0.3], [SINGLE])


def test_run_table_rejects_an_unknown_table():
    # the command line refuses t9 as a usage error; the library call names it
    with pytest.raises(ValueError, match=r"^unknown table 't9'; expected one of \['t4', 't5', 't6'\]$"):
        run_table("t9")


def test_matrix_dir_falls_back_to_the_repository_copy(monkeypatch, tmp_path):
    import spai_ir.reference as reference

    repo = Path(__file__).resolve().parents[1] / "matrices"
    monkeypatch.delenv("SPAI_IR_MATRIX_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # no ./matrices here
    assert reference.matrix_dir() == repo
    # without a repository copy either, the answer is ./matrices, missing as it is
    monkeypatch.setattr(reference, "__file__", str(tmp_path / "site" / "spai_ir" / "reference.py"))
    assert reference.matrix_dir() == tmp_path / "matrices"


@pytest.mark.parametrize("solvers", ["foo", "sir", "spai,sir"])
def test_table_rejects_an_unknown_solver(solvers, capsys):
    with pytest.raises(ValueError, match="unknown table solvers"):
        run_table("t5", solvers=set(solvers.split(",")))
    assert main(["table", "t5", "--solvers", solvers]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown table solvers") and len(err.splitlines()) == 1, err


def test_run_table_all_rows_missing_without_benchmark_files(tmp_path, monkeypatch):
    monkeypatch.setenv("SPAI_IR_MATRIX_DIR", str(tmp_path))
    rows = run_table("t4")
    assert rows, "table must emit one row per golden entry"
    assert all(r["status"] == "missing" for r in rows)


def test_run_table_missing_rows_name_the_precision(tmp_path, monkeypatch):
    # a missing row reports uf as a solved row does: the precision's name, not its flag
    monkeypatch.setenv("SPAI_IR_MATRIX_DIR", str(tmp_path))
    rows = run_table("t5")
    assert rows and all(r["status"] == "missing" for r in rows)
    assert {r["uf"] for r in rows} == {"half"}


def test_run_table_solves_present_rows_once_per_reference(tmp_path, monkeypatch):
    # a shipped matrix stands in for cage5, the smallest t5 matrix; the others stay missing
    import shutil

    import spai_ir.tables as tables
    from spai_ir.reference import GOLDEN_TABLES, rhs_for

    A = load_synthetic("band_asym_120")
    shutil.copy(Path(__file__).resolve().parents[1] / "matrices" / "band_asym_120.mtx", tmp_path / "cage5.mtx")
    monkeypatch.setenv("SPAI_IR_MATRIX_DIR", str(tmp_path))
    real_dd_solve = tables.dd_solve
    calls = []

    def counted(A, b):
        calls.append(A.n_rows)
        return real_dd_solve(A, b)

    monkeypatch.setattr(tables, "dd_solve", counted)
    rows = run_table("t5")
    assert len(rows) == len(GOLDEN_TABLES["t5"]) == 20
    assert [r["status"] for r in rows].count("ok") == 4
    assert [r["status"] for r in rows].count("missing") == 16
    assert calls == [120], "one reference solve per present matrix"

    x_ref = real_dd_solve(A, rhs_for(A.n_rows))
    for golden, row in zip(GOLDEN_TABLES["t5"], rows):
        if row["status"] != "ok":
            continue
        assert golden.matrix == "cage5"
        outcome = solve_system(A, "cage5", golden.precond, HALF, SINGLE, DOUBLE, eps=golden.eps,
                               tau=1e-4, x_ref=x_ref)
        assert row == result_row("cage5", golden.precond, golden.eps, "half", outcome, golden=golden)


def test_run_table_row_band_comparison():
    # exercise the golden-row pipeline end to end on a shipped matrix by
    # using a self-consistent reference, then a deliberately wrong one
    from spai_ir.reference import GoldenRow

    A = load_synthetic("band_asym_120")

    def table_row(golden, with_kappa):
        outcome = solve_system(A, golden.matrix, golden.precond, HALF, SINGLE, DOUBLE, eps=golden.eps,
                               tau=1e-4, with_kappa=with_kappa)
        return result_row(golden.matrix, golden.precond, golden.eps, HALF.name, outcome, golden=golden)

    probe = GoldenRow("band_asym_120", "spai", 0.3, 1.0, 1, (1,))
    first = table_row(probe, with_kappa=True)
    assert first["status"] == "ok" and first["converged"]
    assert not first["nnz_ok"] and not first["iters_ok"]

    consistent = GoldenRow(
        "band_asym_120", "spai", 0.3, first["kappa_tilde"], first["nnz"],
        tuple(first["iters_per_step"]),
    )
    again = table_row(consistent, with_kappa=False)
    assert again["nnz_ok"] and again["iters_ok"]
    assert again["nnz"] == first["nnz"]
    assert again["total_iters"] == first["total_iters"]


def test_solve_system_outcome_shape():
    A = load_synthetic("dd_rand_64")
    out = solve_system(A, "dd_rand_64", "spai", SINGLE, DOUBLE, QUAD, eps=0.3)
    assert out.matrix == "dd_rand_64"
    assert out.report.converged is True
    details = out.report.details
    assert details["solver"] == "spai"
    assert details["precond_nnz"] == details["spai"]["nnz"] > 0
    assert details["tau"] == 1e-8
    assert details["precisions"] == dict(uf="single", u="double", ur="quad-emulated", ug="double", up="double")
    assert out.kappa_tilde is not None


def test_kappa_ratio_unscaled_is_finite():
    from test_acceptance import kappa_ratio_unscaled

    ratio = kappa_ratio_unscaled(load_synthetic("dd_rand_64"), 0.3, SINGLE)
    assert math.isfinite(ratio) and ratio > 0.0


def test_quad_only_as_residual_precision():
    for kw in (dict(uf=QUAD), dict(u=QUAD), dict(ug=QUAD), dict(up=QUAD)):
        with pytest.raises(ValueError, match="quad"):
            IrConfig(**{**dict(uf=SINGLE, u=DOUBLE, ur=QUAD, solver="none"), **kw})
    with pytest.raises(ValueError, match="quad"):
        SpaiParams(eps=0.3, uf=QUAD)


# ---- CLI --------------------------------------------------------------------


def _run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "spai_ir.cli", *args],
        capture_output=True, text=True, **kw,
    )


def test_cli_solve_human_and_exit_code():
    res = _run_cli(["solve", "--matrix", "band_asym_120", "--precisions", "h,s,d", "--eps", "0.3"])
    assert res.returncode == 0, res.stderr
    assert "converged     : True" in res.stdout
    assert "precond nnz" in res.stdout


def test_cli_solve_json_deterministic(tmp_path):
    args = ["solve", "--matrix", "dd_rand_64", "--precisions", "s,d,q", "--eps", "0.3", "--json"]
    r1 = _run_cli(args)
    r2 = _run_cli(args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    payload = json.loads(r1.stdout)
    assert payload["converged"] is True
    assert payload["report"]["total_gmres_iters"] == sum(payload["report"]["gmres_iters_per_step"])


def test_cli_solve_csv_header():
    res = _run_cli(["solve", "--matrix", "ident_32", "--solver", "none", "--precisions", "s,d,q", "--csv"])
    assert res.returncode == 0
    header = res.stdout.splitlines()[0]
    assert header == ("table,matrix,precond,eps,uf,kappa_tilde,nnz,steps,"
                      "iters_per_step,total_iters,converged,ferr,nbe,"
                      "ref_kappa_tilde,ref_nnz,ref_total_iters,nnz_ok,iters_ok,status,"
                      "u,ur,tau,stagnated")


def test_cli_solve_missing_matrix_is_error():
    res = _run_cli(["solve", "--matrix", "no_such_matrix_xyz"])
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_cli_solve_out_file(tmp_path):
    out = tmp_path / "r.json"
    res = _run_cli(["solve", "--matrix", "ident_32", "--solver", "none",
                    "--precisions", "s,d,q", "--json", "--out", str(out)])
    assert res.returncode == 0
    assert json.loads(out.read_text())["matrix"] == "ident_32"


def test_cli_sweep_csv():
    res = _run_cli(["sweep", "--matrix", "dd_rand_64", "--eps-grid", "0.3,0.5", "--uf-list", "h"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "matrix,eps,uf,nnz,kappa_tilde,estimate,feasible,satisfied_all,status"
    assert len(lines) == 3


def test_cli_table_missing_rows_nonzero_exit(tmp_path):
    env = dict(os.environ, SPAI_IR_MATRIX_DIR=str(tmp_path))
    res = _run_cli(["table", "t5", "--solvers", "spai"], env=env)
    assert res.returncode == 2
    assert "MISSING" in res.stdout


def test_cli_invalid_precisions():
    res = _run_cli(["solve", "--matrix", "ident_32", "--precisions", "h,s"])
    assert res.returncode == 1
    # quad has no storage format: as the working precision it is refused
    res = _run_cli(["solve", "--matrix", "dd_rand_64", "--precisions", "s,q,q"])
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "quad" in res.stderr


def test_cli_singular_matrix_is_one_line_error(tmp_path):
    path = tmp_path / "singular.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 5\n"
                    "1 1 1.0\n1 2 2.0\n2 1 2.0\n2 2 4.0\n3 3 1.0\n")
    res = _run_cli(["solve", "--matrix", str(path), "--solver", "lu", "--precisions", "h,s,d"])
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1, res.stderr


def test_cli_half_overflow_is_one_line_error(tmp_path):
    # half GMRES on diag(3e3, 6e3, 9e3): the first Arnoldi norm overflows
    # half, the error names that precision, and no numpy warning may reach
    # stderr ahead of the error line
    path = tmp_path / "diag.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 3\n"
                    "1 1 3e3\n2 2 6e3\n3 3 9e3\n")
    res = _run_cli(["solve", "--matrix", str(path), "--solver", "none", "--precisions", "h,h,d,h,h"])
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: overflow in GMRES in half"], res.stderr


def test_cli_half_factorization_overflow_is_one_line_error(tmp_path):
    # the half factors meet 1e5 -> inf, and the retry's row scale 1 / 1e-310 is inf
    path = tmp_path / "tiny_row.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 4\n"
                    "1 1 1e-310\n1 2 1e-310\n2 1 1e5\n2 2 1\n")
    res = _run_cli(["solve", "--matrix", str(path), "--solver", "lu", "--precisions", "h,s,d"])
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: overflow in the factorization in half"], res.stderr


def test_cli_reference_solve_overflow_is_one_line_error(tmp_path):
    # diag(1, 1e-310) is nonsingular, but x_2 = 1 / 1e-310 overflows double
    path = tmp_path / "tiny_pivot.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n"
                    "1 1 1\n2 2 1e-310\n")
    res = _run_cli(["solve", "--matrix", str(path), "--solver", "none"])
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: overflow in the reference solve in double"], res.stderr


def test_cli_unwritable_out_is_one_line_error(tmp_path):
    # --out names a directory: the write fails with IsADirectoryError
    res = _run_cli(["solve", "--matrix", "lap2d_196", "--out", str(tmp_path)])
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: "), res.stderr


@pytest.mark.parametrize("value, solver, precisions", [
    ("nan", "spai", "h,s,d"), ("nan", "lu", "h,s,d"), ("nan", "none", "h,s,d"),
    ("inf", "none", "s,d,q"),
])
def test_cli_non_finite_entry_is_one_line_error(tmp_path, value, solver, precisions):
    path = tmp_path / "nonfinite.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 3\n"
                    f"1 1 1.0\n2 2 {value}\n3 3 1.0\n")
    res = _run_cli(["solve", "--matrix", str(path), "--solver", solver, "--precisions", precisions])
    assert res.returncode == 1
    assert res.stderr.splitlines() == [f"error: line 4: non-finite value '{value}'"], res.stderr


@pytest.mark.parametrize("solver", ["spai", "lu", "none", "sir"])
def test_cli_non_square_matrix_is_one_line_error(tmp_path, capsys, solver):
    # lu and sir used to print scipy's "inconsistent shapes" from the ordering
    path = tmp_path / "wide.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 3\n"
                    "1 1 1.0\n2 2 1.0\n1 3 2.0\n")
    rc = main(["solve", "--matrix", str(path), "--solver", solver, "--precisions", "h,s,d"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: square matrix required, got 2x3"]


def test_cli_sweep_non_square_matrix_is_one_line_error(tmp_path, capsys):
    # the sweep used to print "error: singular" from cond2(A^T)'s inverse
    path = tmp_path / "wide.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 3\n"
                    "1 1 1.0\n2 2 1.0\n1 3 2.0\n")
    assert main(["sweep", "--matrix", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines() == ["error: square matrix required, got 2x3"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_sweep_refuses_a_non_finite_entry_before_any_work(monkeypatch, value):
    import spai_ir.tables as tables

    monkeypatch.setattr(tables, "cond2_transpose", lambda A: pytest.fail("the sweep did work on a bad A"))
    A = SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, value, 1.0])
    with pytest.raises(ValueError, match="^matrix A has a NaN or infinite entry$"):
        run_sweep(A, "bad", [0.3], [SINGLE])


def test_cli_bad_tau_fails_before_the_build(monkeypatch, capsys):
    from spai_ir import refine, tables

    def must_not_build(*args, **kwargs):
        pytest.fail("a preconditioner was built for a bad tau")

    monkeypatch.setattr(refine, "build_left_preconditioner", must_not_build)
    monkeypatch.setattr(tables, "build_left_preconditioner", must_not_build)
    rc = main(["solve", "--matrix", "conv_diff_225", "--solver", "spai", "--precisions", "h,s,d",
               "--eps", "0.1", "--tau", "2"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: tau must lie strictly between 0 and 1"]


def test_cli_main_callable_directly(capsys):
    rc = main(["solve", "--matrix", "ident_32", "--solver", "none", "--precisions", "s,d,q"])
    assert rc == 0
    assert "converged" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["solve"],  # no --matrix
    ["solve", "--matrix", "band_asym_120", "--eps", "abc"],
    ["solve", "--matrix", "band_asym_120", "--solver", "foo"],
    ["table", "t9"],
    # one output format at most, for each subcommand
    ["solve", "--matrix", "ident_32", "--json", "--csv"],
    ["sweep", "--matrix", "ident_32", "--json", "--csv"],
    ["table", "t5", "--json", "--csv"],
])
def test_cli_usage_error_is_one_line_exit_1(capsys, args):
    # argparse's own errors would print the usage block and exit 2, the code of non-convergence
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: "), captured.err


def test_cli_help_exits_0():
    res = _run_cli(["solve", "--help"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: spai-ir solve")
