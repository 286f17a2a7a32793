"""Refinement commutes with power-of-two scaling of the right-hand side:
x(2^k b) = 2^k x(b) bit for bit, with the same report, for every solver in
s,d,q and d,s,d on each shipped matrix.  Every rounding scales exactly there
as long as nothing leaves a format's normal range.  In h,s,d a narrow solve
rounds its unscaled right-hand side into half, and refinement is not
covariant yet (ROADMAP item 1); the marked case keeps that visible."""

import numpy as np
import pytest

from conftest import load_synthetic
from spai_ir.precision import parse_precision
from spai_ir.refine import SOLVERS, IrConfig, prepare_solver, run_ir
from spai_ir.reference import SYNTHETIC, rhs_for
from spai_ir.spai import SpaiParams

KS = (8, -8, 20, -20)

CASES = [pytest.param(name, solver, precisions, KS, id=f"{name}-{solver}-{precisions}")
         for name in SYNTHETIC for solver in SOLVERS for precisions in ("s,d,q", "d,s,d")]
CASES.append(pytest.param(
    "conv_diff_225", "sir", "h,s,d", (-8,), id="conv_diff_225-sir-h,s,d-k=-8",
    marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1: sir's half correction solve rounds an unscaled "
                                                "residual; b / 2**8 turns converged (ferr 7.0e-7) into not (7.5e-5)")))


@pytest.mark.parametrize("name, solver, precisions, ks", CASES)
def test_refinement_commutes_with_power_of_two_scaling(name, solver, precisions, ks):
    A = load_synthetic(name)
    b = rhs_for(A.n_rows)
    uf, u, ur = map(parse_precision, precisions.split(","))
    cfg = IrConfig(uf=uf, u=u, ur=ur, solver=solver, spai=SpaiParams(eps=0.3, uf=uf) if solver == "spai" else None)
    P = prepare_solver(A, cfg)  # once for every k
    x, report = run_ir(A, b, cfg, solver=P)
    for k in ks:
        xk, rk = run_ir(A, 2.0**k * b, cfg, solver=P)
        assert (xk.tobytes(), rk.to_dict()) == ((2.0**k * x).tobytes(), report.to_dict()), k
