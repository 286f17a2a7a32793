"""The diagnostics that LAPACK and BLAS compute drift only within the
README's tolerance under another OpenBLAS kernel and thread count, and the
emulated outputs do not drift at all.

Child processes compute the same runs on ``colscale_80`` and
``lap2d_196``: one on OpenBLAS's default kernel and thread count, and each
of the others with its own settings in its environment alone:
``OPENBLAS_CORETYPE=Haswell`` and ``OPENBLAS_NUM_THREADS=2``, and
``OPENBLAS_NUM_THREADS=1``, what a one-core machine gets.  Each child runs ``kappa_inf`` and ``cond2_transpose``
of A, and an ``lu`` and a ``spai`` (eps 0.3) solve in hsd and sdq, whose
``kappa_tilde`` is ``kappa_inf_product`` with a half or single
preconditioner.  The diagnostics must agree within ``RTOL`` relative, as
the README's bit contract says; the solutions and the refinement reports
must be the same bytes.  OpenBLAS reads ``OPENBLAS_CORETYPE`` only when it
is built with ``DYNAMIC_ARCH``, so the tests are skipped unless numpy's and
scipy's OpenBLAS both are.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

MATRICES = ("colscale_80", "lap2d_196")
RTOL = 1e-13
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = """
import hashlib, json, sys
from spai_ir.analysis import cond2_transpose, kappa_inf
from spai_ir.precision import DOUBLE, HALF, QUAD, SINGLE
from spai_ir.reference import find_matrix
from spai_ir.sparse import load_matrix_market
from spai_ir.tables import solve_system

diagnostics, emulated = {}, {}
for name in sys.argv[1:]:
    A = load_matrix_market(find_matrix(name))
    diagnostics[f"{name}/kappa_inf"] = kappa_inf(A)
    diagnostics[f"{name}/cond2_transpose"] = cond2_transpose(A)
    for pset, (uf, u, ur) in {"hsd": (HALF, SINGLE, DOUBLE), "sdq": (SINGLE, DOUBLE, QUAD)}.items():
        for solver in ("lu", "spai"):
            key = f"{name}/{pset}/{solver}"
            out = solve_system(A, name, solver, uf, u, ur, eps=0.3 if solver == "spai" else None)
            diagnostics[f"{key}/kappa_tilde"] = out.kappa_tilde
            report = json.dumps(out.report.to_dict(), sort_keys=True).encode()
            emulated[key] = hashlib.sha256(out.x.tobytes() + report).hexdigest()
print(json.dumps({"diagnostics": diagnostics, "emulated": emulated}))
"""


def _dynamic_arch(module) -> bool:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy or scipy too old to report its build as a dict
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@functools.lru_cache(maxsize=None)
def _child(**blas_env) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env.update(blas_env, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", CHILD, *MATRICES], env=env, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _compare(got: dict, want: dict) -> None:
    assert got["emulated"] == want["emulated"]
    want, got = want["diagnostics"], got["diagnostics"]
    assert sorted(got) == sorted(want)
    drift = {key: abs(got[key] - want[key]) / abs(want[key]) for key in want}
    assert max(drift.values()) <= RTOL, {key: d for key, d in drift.items() if d > RTOL}


DYNAMIC_ARCH = pytest.mark.skipif(
    not (_dynamic_arch(np) and _dynamic_arch(scipy)),
    reason="OpenBLAS picks its kernel by OPENBLAS_CORETYPE only when built with DYNAMIC_ARCH")


@DYNAMIC_ARCH
def test_diagnostics_drift_within_tolerance_and_emulation_not_at_all():
    _compare(_child(OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="2"), _child())


@DYNAMIC_ARCH
def test_diagnostics_on_one_blas_thread_drift_within_tolerance_and_emulation_not_at_all():
    _compare(_child(OPENBLAS_NUM_THREADS="1"), _child())
