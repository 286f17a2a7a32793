#!/usr/bin/env python3
"""Write the SPAI guard table ``tests/spai_cells.json``.

Every shipped synthetic matrix is built as a left preconditioner in half and
single precision at each eps of the grid 0.1 ... 0.5.  For each cell the
table records what the build decided rather than its bits: the count of
columns per status, whether every column met the tolerance, the total
augmentation rounds, the preconditioner's nnz and the largest column
residual.  A change of the arithmetic moves the fingerprints of every
cell it touches; this table shows which of those cells also changed a
decision.  ``tests/test_spai_cells.py`` rebuilds two of the cells.

    PYTHONPATH=src python tools/spai_cells.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spai_ir.precision import HALF, SINGLE  # noqa: E402
from spai_ir.reference import SYNTHETIC, find_matrix  # noqa: E402
from spai_ir.spai import SpaiParams, build_left_preconditioner  # noqa: E402
from spai_ir.sparse import load_matrix_market  # noqa: E402

OUT = ROOT / "tests" / "spai_cells.json"
EPS = (0.1, 0.2, 0.3, 0.4, 0.5)
UFS = (HALF, SINGLE)


def cell_key(name: str, uf, eps: float) -> str:
    return f"{name}/{uf.name}/eps={eps}"


def cell(A, uf, eps: float) -> dict:
    pre = build_left_preconditioner(A, SpaiParams(eps=eps, uf=uf))
    return {
        "status": dict(sorted(Counter(pre.col_status).items())),
        "all_satisfied": pre.all_satisfied,
        "total_rounds": int(pre.col_rounds.sum()),
        "nnz": pre.nnz,
        "max_col_resnorm": float(pre.col_resnorm.max()),
    }


def matrix_cells(name: str) -> dict:
    A = load_matrix_market(find_matrix(name))
    return {cell_key(name, uf, eps): cell(A, uf, eps) for uf in UFS for eps in EPS}


def main():
    table = {}
    for name in sorted(SYNTHETIC):
        table.update(matrix_cells(name))
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
