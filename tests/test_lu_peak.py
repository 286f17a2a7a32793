"""``tools/lu_peak.py`` on a shipped matrix: the dense LU path holds each
n x n array once.

The double-double reference factors the dense copy of the sparse matrix in
place, so ``dd_solve`` peaks at that copy, the two n x n boolean masks of
the elimination (1/8 each) and its scratch: about 1.33 n x n float64
arrays at n = 225, all of them the repo's own.  A copy of the reference's
input would add a whole array (2.33 when it was held twice).

The half and single factors are kept only in float32 (0.5), so a whole LU
solve peaks at about 3.55, inside the kappa(PA) diagnostic's
``apply_exact``: the factors, the reordered dense copy of A (1), the
factors widened to float64 for LAPACK (1), and the result of scipy's
``solve_triangular`` (1), which is its Fortran-ordered work copy of the
right-hand side.  The rest of that diagnostic, ``np.linalg.inv``'s result
and ``norm_inf``'s ``np.abs`` temporary, stays below it.  A float64 twin of
the factors would add half an array (4.55 when they were held twice).  So
the 3.7 bound leaves room for about 0.15 n x n of further scratch: a numpy
or scipy release that makes one more n x n temporary in ``solve_triangular``
fails this test with no change in the repo, and the bound is to be
re-measured with ``tools/lu_peak.py`` then, not raised by guess.
"""

import importlib.util
from pathlib import Path

from conftest import load_synthetic
from spai_ir.precision import DOUBLE, HALF, SINGLE

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lu_peak.py"
spec = importlib.util.spec_from_file_location("lu_peak", TOOL)
lu_peak = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lu_peak)


def test_lu_solve_holds_each_dense_array_once():
    result = lu_peak.phase_peaks(load_synthetic("conv_diff_225"), HALF, SINGLE, DOUBLE)
    assert result["lu_dtype"] == "float32"
    assert result["peaks"]["dd_solve"] <= 1.4, result
    assert result["peaks"]["solve_system"] <= 3.7, result
