"""Emulation-contract fingerprints of the dense LU factorization.

Every shipped synthetic matrix is factored by ``dense_lu`` in half, single
and double, in its natural order and in the RCM order that the LU solver
uses, as given and scaled by 3e4 (which overflows the half-precision
factors) and by 1e-7 (which rounds the smallest negative entries of some
matrices to -0 in half), each handed to ``dense_lu`` as a ``SparseMatrix``
that stores every entry but +0 (conftest's ``stored``).  For each case the
SHA-256 of the packed factors that conftest's ``packed`` rebuilds from the
band store, and of the pivot order, or the type and message of the
exception raised, must equal what ``lu_fingerprints.json`` stores.  The
file also records which paths the full-block elimination of each case takes
(a -0 in the rounded input, a non-finite pivot row or non-finite
multipliers), and the grid must keep covering the first two.

The file is regenerated, only for a deliberate and documented change of the
arithmetic, with ``PYTHONPATH=src python tests/test_lu_fingerprints.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digest, packed, reference_dense_lu, stored
from spai_ir.precision import DOUBLE, HALF, SINGLE, dense_lu
from spai_ir.reference import SYNTHETIC, find_matrix
from spai_ir.refine import rcm_permutation
from spai_ir.sparse import load_matrix_market

FINGERPRINTS = Path(__file__).with_name("lu_fingerprints.json")
SCALES = (1.0, 3.0e4, 1.0e-7)  # as given; half overflow; -0 in half


def factor_fingerprint(dense: np.ndarray, uf) -> dict:
    try:
        lu, perm = packed(dense_lu(stored(dense), uf))
    except ArithmeticError as exc:
        return {"raises": f"{type(exc).__name__}: {exc}"}
    return {"lu": digest(lu, np.float64), "perm": digest(perm, np.int64)}


def all_fingerprints() -> dict:
    out = {}
    for name in sorted(SYNTHETIC):
        A = load_matrix_market(find_matrix(name))
        orders = {"natural": np.arange(A.n_rows), "rcm": rcm_permutation(A)}
        for order, idx in orders.items():
            base = A.to_dense()[np.ix_(idx, idx)]
            for scale in SCALES:
                for uf in (HALF, SINGLE, DOUBLE):
                    dense = base * scale
                    seen = set()
                    try:
                        reference_dense_lu(dense, uf, seen)
                    except ArithmeticError:
                        pass
                    case = factor_fingerprint(dense, uf)
                    case["paths"] = sorted(seen)
                    out[f"{name}*{scale:g}/{order}/{uf.name}"] = case
    return out


def test_lu_factors_match_committed_fingerprints():
    want = json.loads(FINGERPRINTS.read_text())
    got = all_fingerprints()
    assert sorted(got) == sorted(want), "fingerprint grid changed"
    moved = {key: sorted(f for f in got[key].keys() | want[key].keys()
                         if got[key].get(f) != want[key].get(f))
             for key in got if got[key] != want[key]}
    if moved:
        pytest.fail(f"dense LU output moved in {len(moved)} cases: {moved}")
    paths = set().union(*(set(case["paths"]) for case in got.values()))
    assert {"minus_zero", "nonfinite_pivot_row"} <= paths, paths


if __name__ == "__main__":
    FINGERPRINTS.write_text(json.dumps(all_fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}", file=sys.stderr)
