"""Emulation-contract fingerprints of the dense LU factorization.

Every shipped synthetic matrix is factored by ``dense_lu`` in half, single
and double, in its natural order and in the RCM order that the LU solver
uses, as given and scaled by 3e4 (which overflows the half-precision
factors) and by 1e-7 (which rounds the smallest negative entries of some
matrices to -0 in half), each handed to ``dense_lu`` as a ``SparseMatrix``
that stores every entry but +0 (conftest's ``stored``).  For each case the
SHA-256 of the packed factors that conftest's ``packed`` rebuilds from the
band store, and of the pivot order, or the type and message of the
exception raised, must equal what ``lu_fingerprints.json`` stores.  Each
case must also agree with the oracle of the band contract,
``reference_dense_lu``: the same factors up to the sign of a zero and the
same pivot order, or the same exception.  In each order the double
factors must have ``dgbtrf``'s band of the stored pattern: kl = max(i - j)
and ku = kl + max(j - i), at most n - 1 and at least 1.  The file records which paths
the oracle takes for each case (a -0 in the rounded input, a non-finite
pivot row or non-finite multipliers, a zero pivot after an overflow), and
the grid must keep covering the contract's -0 rule and its overflow rule.

The file is regenerated, only for a deliberate and documented change of the
arithmetic, with ``PYTHONPATH=src python tests/test_lu_fingerprints.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digest, packed, reference_dense_lu, signless_zeros, stored
from spai_ir.precision import DOUBLE, HALF, SINGLE, dense_lu
from spai_ir.reference import SYNTHETIC, find_matrix
from spai_ir.refine import rcm_permutation
from spai_ir.sparse import load_matrix_market

FINGERPRINTS = Path(__file__).with_name("lu_fingerprints.json")
SCALES = (1.0, 3.0e4, 1.0e-7)  # as given; half overflow; -0 in half


def outcome(factor) -> dict:
    """The packed factors and pivot order that ``factor()`` returns, or the exception it raises."""
    try:
        lu, perm = factor()
    except ArithmeticError as exc:
        return {"raises": f"{type(exc).__name__}: {exc}"}
    return {"lu": lu, "perm": perm}


def all_cases() -> dict:
    """Each case's outcome of ``dense_lu`` and of the oracle, and the oracle's paths."""
    out = {}
    for name in sorted(SYNTHETIC):
        A = load_matrix_market(find_matrix(name))
        orders = {"natural": np.arange(A.n_rows), "rcm": rcm_permutation(A)}
        for order, idx in orders.items():
            base = A.to_dense()[np.ix_(idx, idx)]
            i, j = np.nonzero(base)
            kl = int((i - j).max(initial=0))
            band = kl, max(min(kl + int((j - i).max(initial=0)), A.n_rows - 1), 1)
            f = dense_lu(stored(base), DOUBLE)
            assert (f.kl, f.ku) == band, f"{name}/{order}: band {(f.kl, f.ku)}, want {band}"
            for scale in SCALES:
                for uf in (HALF, SINGLE, DOUBLE):
                    dense, seen = base * scale, set()
                    want = outcome(lambda: reference_dense_lu(dense, uf, seen))
                    got = outcome(lambda: packed(dense_lu(stored(dense), uf)))
                    out[f"{name}*{scale:g}/{order}/{uf.name}"] = got, want, sorted(seen)
    return out


def fingerprint(got: dict, paths: list) -> dict:
    if "raises" in got:
        return {**got, "paths": paths}
    return {"lu": digest(got["lu"], np.float64), "perm": digest(got["perm"], np.int64), "paths": paths}


def all_fingerprints() -> dict:
    return {key: fingerprint(got, paths) for key, (got, _, paths) in all_cases().items()}


def agrees(got: dict, want: dict) -> bool:
    if "raises" in got or "raises" in want:
        return got == want
    return signless_zeros(got["lu"]) == signless_zeros(want["lu"]) and np.array_equal(got["perm"], want["perm"])


def test_lu_factors_match_committed_fingerprints():
    want = json.loads(FINGERPRINTS.read_text())
    cases = all_cases()
    got = {key: fingerprint(g, paths) for key, (g, _, paths) in cases.items()}
    assert sorted(got) == sorted(want), "fingerprint grid changed"
    moved = {key: sorted(f for f in got[key].keys() | want[key].keys()
                         if got[key].get(f) != want[key].get(f))
             for key in got if got[key] != want[key]}
    if moved:
        pytest.fail(f"dense LU output moved in {len(moved)} cases: {moved}")
    disagree = [key for key, (g, oracle, _) in cases.items() if not agrees(g, oracle)]
    assert not disagree, f"dense LU departs from the band contract's oracle in {disagree}"
    paths = set().union(*(set(case["paths"]) for case in got.values()))
    assert {"minus_zero", "nonfinite_pivot_row"} <= paths, paths


if __name__ == "__main__":
    FINGERPRINTS.write_text(json.dumps(all_fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}", file=sys.stderr)
