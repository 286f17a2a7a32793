"""Emulation-contract fingerprints of the refinement solves.

Every shipped synthetic matrix is solved with the benchmark right-hand side
under the hsd and sdq precision sets with each solver (SPAI at eps 0.3,
dense LU, SIR and unpreconditioned GMRES).  Each matrix scaled by 3e4 is
also solved under hsd with LU and SIR; except for the identity, this
overflows the half-precision factorization and takes the equilibrated
retry.  For each case the SHA-256
of the solution, of the sorted ``IrReport.to_dict()`` JSON, of the
preconditioner size and of the kappa(PA) diagnostic must equal the digest
stored in ``ir_fingerprints.json``, which also records whether the LU
factors were equilibrated; so must the double-double reference
solution (hi and lo words) of each matrix.

The file is regenerated, only for a deliberate and documented change of the
arithmetic, with ``PYTHONPATH=src python tests/test_ir_fingerprints.py``.
"""

import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digest
from spai_ir.precision import DOUBLE, HALF, QUAD, SINGLE, dd_solve
from spai_ir.reference import SYNTHETIC, find_matrix, rhs_for
from spai_ir.sparse import SparseMatrix, load_matrix_market
from spai_ir.tables import solve_system

FINGERPRINTS = Path(__file__).with_name("ir_fingerprints.json")
PRECISION_SETS = {"hsd": (HALF, SINGLE, DOUBLE), "sdq": (SINGLE, DOUBLE, QUAD)}
SOLVERS = ("spai", "lu", "sir", "none")
SCALE = 3.0e4  # overflows half-precision LU, forcing the equilibrated retry


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solve_fingerprint(A, name: str, pset: str, solver: str) -> dict:
    uf, u, ur = PRECISION_SETS[pset]
    out = solve_system(A, name, solver, uf, u, ur, eps=0.3 if solver == "spai" else None)
    kappa = b"none" if out.kappa_tilde is None else struct.pack("<d", out.kappa_tilde)
    return {
        "x": digest(out.x, np.float64),
        "report": _sha(json.dumps(out.report.to_dict(), sort_keys=True).encode()),
        "precond_nnz": _sha(str(out.precond_nnz).encode()),
        "kappa_tilde": _sha(kappa),
        "lu_scaled": out.report.details["lu_scaled"],
    }


def all_fingerprints() -> dict:
    out = {}
    for name in sorted(SYNTHETIC):
        A = load_matrix_market(find_matrix(name))
        hi, lo = dd_solve(A, rhs_for(A.n_rows))
        out[f"{name}/dd_solve"] = {"hi": digest(hi, np.float64), "lo": digest(lo, np.float64)}
        for pset in PRECISION_SETS:
            for solver in SOLVERS:
                out[f"{name}/{pset}/{solver}"] = solve_fingerprint(A, name, pset, solver)
        scaled = SparseMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * SCALE)
        for solver in ("lu", "sir"):
            out[f"{name}*{SCALE:g}/hsd/{solver}"] = solve_fingerprint(scaled, name, "hsd", solver)
    return out


def test_ir_solves_match_committed_fingerprints():
    want = json.loads(FINGERPRINTS.read_text())
    got = all_fingerprints()
    assert sorted(got) == sorted(want), "fingerprint grid changed"
    moved = {key: sorted(f for f in got[key] if got[key][f] != want[key][f])
             for key in got if got[key] != want[key]}
    if moved:
        pytest.fail(f"refinement output moved in {len(moved)} cases: {moved}")


if __name__ == "__main__":
    FINGERPRINTS.write_text(json.dumps(all_fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}", file=sys.stderr)
