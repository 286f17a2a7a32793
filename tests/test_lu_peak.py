"""``tools/lu_peak.py`` on a shipped matrix: each phase of a dense LU solve
holds each n x n array once.

The peaks are ``tracemalloc``'s, in n x n float64 arrays, on
``conv_diff_225`` in hsd and sdq; memory that numpy or LAPACK takes with
``malloc`` is not traced.  Each bound leaves about 0.1 to 0.17 of room
above what was measured, and would fail if any phase held one more
quarter array.

- ``dd_solve`` (1.33): the dense copy of A, factored in place, the two
  n x n boolean masks of the elimination (1/8 each) and its scratch.  A
  copy of the reference's input would add a whole array.
- ``prepare_solver`` (2.00 in half, 1.77 in single): the RCM-ordered dense
  copy of A, made straight in that order (1), the working copy in the
  format's own dtype (1/4 in float16, 1/2 in float32), the masks, and the
  float32 factors, which for half are a new array (1/2).  Densifying A and
  then permuting it would add a whole array.
- ``run_ir`` (0.11): no n x n array at all; GMRES forms only the
  (k+1) x k Hessenberg matrix of the iterations it ran.
- ``kappa_inf_product`` (2.13): inside ``apply_exact``, the dense copy of
  A in pivot and Fortran order, which both triangular solves overwrite
  (1), and the library temporaries that remain: the factors widened to
  float64 for LAPACK (1) and ``solve_triangular``'s finiteness mask (1/8).
  ``kappa_inf`` then holds P A and its inverse (2); LAPACK's work copy in
  ``np.linalg.inv`` is not traced, and the norm of the inverse is taken in
  place on it.
- ``solve_system`` (2.67): the four phases in turn, with the factors (1/2)
  kept through the diagnostic.

A numpy or scipy release that makes one more n x n temporary fails this
test with no change in the repo; the bounds are then to be re-measured
with ``tools/lu_peak.py``, not raised by guess.
"""

import importlib.util
from pathlib import Path

from conftest import load_synthetic
from spai_ir.precision import DOUBLE, HALF, QUAD, SINGLE

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lu_peak.py"
spec = importlib.util.spec_from_file_location("lu_peak", TOOL)
lu_peak = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lu_peak)

BOUNDS = {"dd_solve": 1.4, "run_ir": 0.2, "kappa_inf_product": 2.3, "solve_system": 2.8}
PREPARE_BOUNDS = {"hsd": ((HALF, SINGLE, DOUBLE), 2.1), "sdq": ((SINGLE, DOUBLE, QUAD), 1.9)}


def test_lu_solve_holds_each_dense_array_once():
    A = load_synthetic("conv_diff_225")
    for precisions, prepare_bound in PREPARE_BOUNDS.values():
        result = lu_peak.phase_peaks(A, *precisions)
        bounds = {**BOUNDS, "prepare_solver": prepare_bound}
        assert result["lu_dtype"] == "float32"
        over = {phase: (peak, bounds[phase]) for phase, peak in result["peaks"].items() if peak > bounds[phase]}
        assert not over, f"{precisions}: peak over bound in {over}"
