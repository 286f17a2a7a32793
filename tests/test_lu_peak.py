"""``tools/lu_peak.py`` on a shipped matrix: each phase of a dense LU solve
holds each n x n array once, and the factorizations hold none.

The peaks are ``tracemalloc``'s, in n x n float64 arrays, on
``conv_diff_225`` in hsd and sdq; memory that numpy or LAPACK takes with
``malloc`` is not traced.  Each bound leaves about 0.06 to 0.12 of room
above what was measured, and would fail if any phase held one more
quarter array (or, for the two factorizations, any n x n array of float32
or float64).  The band store of the RCM-ordered matrix has stride 45,
so it holds 46 of 225 entries per column, 0.20 of an n x n array.

- ``dd_solve`` (0.37): the float64 band store (0.20), factored in place,
  and arrays as long as A's entry list (about 0.02 each here) that place
  its entries.  Densifying A would add a whole array.
- ``prepare_solver`` (0.34 in hsd, 0.28 in sdq): the RCM ordering and the
  RCM-ordered sparse matrix, the band store in the format's own dtype
  (0.05 in float16, 0.10 in float32) and the arrays that fill it, and the
  float32 factors, which for half are a new store (0.10).  A dense copy
  of A would add a whole array.
- ``run_ir`` (0.13): no n x n array at all; GMRES forms only the
  (k+1) x k Hessenberg matrix of the iterations it ran.
- ``kappa_inf_product`` (1.29): inside ``apply_exact``, the dense copy of
  A in the row order of the factors and in Fortran order, which LAPACK's
  ``dgbtrs`` overwrites (1), beside the float64 copy of the band store in
  LAPACK's band form (0.20); the rows then go back to A's order in place,
  64 columns at a time (an n x 64 block, 0.28 here).  ``kappa_inf`` then
  inverts P A in place by ``dgetrf`` and ``dgetri``, beside only the
  pivots and ``dgetri``'s work array of n x 64 (its optimal size here,
  0.28), which with P A sets the peak; ``dlange`` takes both norms with no
  n x n temporary.  No identity is made, and no work copy of P A.
- ``solve_system`` (1.44): the four phases in turn; nothing of the
  factorizations outlives them but the band store.

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

BOUNDS = {"dd_solve": 0.45, "run_ir": 0.2, "kappa_inf_product": 1.4, "solve_system": 1.55}
PREPARE_BOUNDS = {"hsd": ((HALF, SINGLE, DOUBLE), 0.4), "sdq": ((SINGLE, DOUBLE, QUAD), 0.4)}


def test_lu_solve_holds_each_dense_array_once():
    A = load_synthetic("conv_diff_225")
    for precisions, prepare_bound in PREPARE_BOUNDS.values():
        result = lu_peak.phase_peaks(A, *precisions)
        bounds = {**BOUNDS, "prepare_solver": prepare_bound}
        assert (result["store_dtype"], result["store_stride"]) == ("float32", 45)
        over = {phase: (peak, bounds[phase]) for phase, peak in result["peaks"].items() if peak > bounds[phase]}
        assert not over, f"{precisions}: peak over bound in {over}"
