"""Emulation-contract fingerprints of the SPAI build.

Every shipped synthetic matrix is built as a left preconditioner in half and
single precision at eps 0.2, 0.3 and 0.5.  The SHA-256 of each output array
(the CSC arrays of P and the per-column statistics) must equal the digest
stored in ``spai_fingerprints.json``, so a change that moves any bit of the
build fails here.  eps 0.1 is left out to keep the test short.

The file is regenerated, only for a deliberate and documented change of the
arithmetic, with ``PYTHONPATH=src python tests/test_spai_fingerprints.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digest
from spai_ir.precision import HALF, SINGLE
from spai_ir.reference import SYNTHETIC, find_matrix
from spai_ir.spai import SpaiParams, build_left_preconditioner
from spai_ir.sparse import load_matrix_market

FINGERPRINTS = Path(__file__).with_name("spai_fingerprints.json")
EPS = (0.2, 0.3, 0.5)
UFS = (HALF, SINGLE)


def cell_key(name: str, uf, eps: float) -> str:
    return f"{name}/{uf.name}/eps={eps}"


def fingerprint(A, uf, eps: float) -> dict:
    pre = build_left_preconditioner(A, SpaiParams(eps=eps, uf=uf))
    return {
        "indptr": digest(pre.P.indptr, np.int64),
        "indices": digest(pre.P.indices, np.int64),
        "data": digest(pre.P.data, np.float64),
        "col_resnorm": digest(pre.col_resnorm, np.float64),
        "col_rounds": digest(pre.col_rounds, np.int64),
        "satisfied": digest(pre.satisfied, np.uint8),
        "col_status": hashlib.sha256(json.dumps(list(pre.col_status)).encode()).hexdigest(),
    }


def all_fingerprints() -> dict:
    out = {}
    for name in sorted(SYNTHETIC):
        A = load_matrix_market(find_matrix(name))
        for uf in UFS:
            for eps in EPS:
                out[cell_key(name, uf, eps)] = fingerprint(A, uf, eps)
    return out


def test_spai_build_matches_committed_fingerprints():
    want = json.loads(FINGERPRINTS.read_text())
    got = all_fingerprints()
    assert sorted(got) == sorted(want), "fingerprint grid changed"
    moved = {key: sorted(f for f in got[key] if got[key][f] != want[key][f])
             for key in got if got[key] != want[key]}
    if moved:
        pytest.fail(f"SPAI output moved in {len(moved)} cells: {moved}")


if __name__ == "__main__":
    FINGERPRINTS.write_text(json.dumps(all_fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}", file=sys.stderr)
