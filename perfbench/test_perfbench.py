"""Tests of the benchmark itself: the checkers reject wrong answers, every
workload runs end to end at a tiny size, and the tracer survives a renamed
function.  Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
from spai_ir import precision, spai  # noqa: E402
from workloads import Operation, _system  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def system():
    return _system("conv_diff_16", lambda s: gen.conv_diff_2d(4, s), 7)


def test_generator_seed_changes_coefficients_not_structure():
    for make in (lambda s: gen.conv_diff_2d(5, s), lambda s: gen.stencil_3d((3, 4, 2), s),
                 lambda s: gen.band_asym(20, s),
                 lambda s: gen.dd_rand(20, s), lambda s: gen.colscale(20, s)):
        a, b, a2 = make(1), make(2), make(1)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, a2.data)


def test_solution_check_rejects_one_perturbed_entry_of_x(system):
    x = checks.independent_solution(system.A_csr, system.b)
    u = precision.SINGLE.unit_roundoff
    checks.check_solution(system.A_csr, system.b, x, u, x_true=x)
    bad = x.copy()
    bad[3] *= 1.0 + 1e-3
    with pytest.raises(checks.CheckFailed, match="backward error"):
        checks.check_solution(system.A_csr, system.b, bad, u)
    with pytest.raises(checks.CheckFailed):
        checks.check_solution(system.A_csr, system.b, bad, u, x_true=x)


def test_reference_check_rejects_a_perturbed_low_word(system):
    hi, lo = precision.dd_solve(system.A, system.b)
    assert checks.check_reference(system.A_csr, system.b, (hi, lo)) <= 16 * 2.0**-106
    lo = lo.copy()
    lo[0] += 1e-6 * abs(hi[0]) * 2.0**-53
    with pytest.raises(checks.CheckFailed, match="reference backward error"):
        checks.check_reference(system.A_csr, system.b, (hi, lo))


def test_preconditioner_check_rejects_one_perturbed_entry_of_p(system):
    pre = spai.build_left_preconditioner(system.A, spai.SpaiParams(eps=0.3, uf=precision.HALF))
    P = checks.csc_from_arrays(pre.P.n_rows, pre.P.indptr, pre.P.indices, pre.P.data)
    checks.check_preconditioner(system.A_csr, P, 0.3)
    P.data[5] += 100.0
    with pytest.raises(checks.CheckFailed, match="I - P A"):
        checks.check_preconditioner(system.A_csr, P, 0.3)


def test_rerun_that_differs_counts_as_wrong():
    outputs = iter([b"first", b"first", b"second"])
    op = Operation("flaky", lambda: next(outputs), lambda r: None, lambda r: r)
    tally = harness.Tally(harness.Clock())
    harness.run_rounds([op], 0.0, 2, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 0, True)
    tally.run_op(op)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 1, False)


def test_tracer_reports_absent_names_and_restores_originals(monkeypatch):
    from spai_ir import krylov, sparse

    original = sparse.matvec
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("gone.layer", tracer.SPAN, ("sparse",), "no_such")])
    t = tracer.Tracer().install()
    try:
        assert krylov.matvec is not original and sparse.matvec is not original
        A = sparse.SparseMatrix.identity(4)
        krylov.matvec(A, np.ones(4), precision.HALF)
        raw = t.take()
    finally:
        t.uninstall()
    assert sparse.matvec is original and krylov.matvec is original
    assert "gone.layer" in t.absent and "spai_ir.sparse.no_such" in t.absent
    assert raw["sparse.matvec.calls"] == 1
    layers = tracer.layer_metrics(raw, ["sparse.matvec.calls", "gone.layer.s"])
    assert layers == {"sparse.matvec.calls": 1.0, "gone.layer.s": 0.0}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", ["spai_sweep", "ir_solve", "lu_baseline"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in wanted]
    if trace == "1":
        data = json.loads((HERE / "out" / f"trace-{workload}-seed3.json").read_text())
        assert data["spans"] and data["absent"] == []


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "spai_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
