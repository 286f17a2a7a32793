#!/usr/bin/env python3
"""Print the ``tracemalloc`` peak of each phase of one dense-LU solve, in
units of one n x n float64 array (8 n**2 bytes).

The phases are the calls that ``tables.solve_system(..., "lu", uf, u, ur)``
makes, each run on its own: ``prepare_solver``, the ``dd_solve``
reference, ``run_ir`` on that preconditioner and reference, and the
kappa(PA) diagnostic ``kappa_inf_product``.  ``solve_system`` is then the
whole call, which makes all four.  A peak is the most memory traced during
the call above what was traced when it started, so a phase's inputs are
not counted and what it returns is.  One untraced solve runs first, so the
peaks are those of a solve that repeats, not of the first.  The matrix is
a path or a shipped name, as ``spai-ir solve --matrix`` takes it, and the
precisions are uf,u,ur (default h,s,d).  The output is one JSON object
that also gives n and the dtype and column stride, kl + ku, of the
preconditioner's band store of factors:

    PYTHONPATH=src python tools/lu_peak.py conv_diff_225
    PYTHONPATH=src python tools/lu_peak.py lap2d_196 --precisions s,d,q
"""

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spai_ir.analysis import kappa_inf_product  # noqa: E402
from spai_ir.precision import dd_solve, parse_precision  # noqa: E402
from spai_ir.reference import find_matrix, rhs_for  # noqa: E402
from spai_ir.refine import IrConfig, prepare_solver, run_ir  # noqa: E402
from spai_ir.sparse import load_matrix_market  # noqa: E402
from spai_ir.tables import solve_system  # noqa: E402


def _peak(call):
    """``call()`` and the most bytes traced during it above those traced at its start."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    return result, tracemalloc.get_traced_memory()[1] - start


def phase_peaks(A, uf, u, ur) -> dict:
    """The peak of each phase of one LU solve of ``A`` in (uf, u, ur), in
    n x n float64 arrays, with n and the dtype and stride of the factor store."""
    cfg = IrConfig(uf=uf, u=u, ur=ur, solver="lu")
    b = rhs_for(A.n_rows)
    solve_system(A, "lu_peak", "lu", uf, u, ur)  # untraced: the imports and kept plans a first call makes
    peaks = {}
    tracemalloc.start()
    try:
        P, peaks["prepare_solver"] = _peak(lambda: prepare_solver(A, cfg))
        x_ref, peaks["dd_solve"] = _peak(lambda: dd_solve(A, b))
        _, peaks["run_ir"] = _peak(lambda: run_ir(A, b, cfg, solver=P, x_ref=x_ref))
        _, peaks["kappa_inf_product"] = _peak(lambda: kappa_inf_product(P, A))
        _, peaks["solve_system"] = _peak(lambda: solve_system(A, "lu_peak", "lu", uf, u, ur))
    finally:
        tracemalloc.stop()
    unit = 8 * A.n_rows**2
    return {"n": A.n_rows, "store_dtype": P.factors.store.dtype.name, "store_stride": P.factors.kl + P.factors.ku,
            "peaks": {phase: round(peak / unit, 3) for phase, peak in peaks.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("matrix", help="a Matrix Market path or a shipped matrix name")
    ap.add_argument("--precisions", default="h,s,d", help="uf,u,ur; letters h s d q")
    args = ap.parse_args(argv)
    path = find_matrix(args.matrix)
    if path is None:
        ap.error(f"matrix {args.matrix!r} not found")
    uf, u, ur = (parse_precision(p) for p in args.precisions.split(","))
    result = phase_peaks(load_matrix_market(path), uf, u, ur)
    print(json.dumps({"matrix": path.stem, "precisions": args.precisions, **result}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
