#!/usr/bin/env python3
"""Print the best-of-N time of one call of each per-step kernel of the LU
baseline and of GMRES, in microseconds, as one sorted-key JSON object:

- ``dense_lu``, per format, on each ``lu_baseline`` stand-in of
  ``perfbench/workloads.py`` in RCM order, as ``prepare_solver`` factors it;
- ``DenseLu.substitute``, per pair of factor format and substitution
  precision (``"half/single"``: half factors, single substitution), on those
  factors and the workloads' right-hand side;
- ``PairwisePlan.mgs_step``, per plan precision, at the order of each
  ``ir_solve`` stand-in, one step of a unit vector against a normal one;
- ``PairwisePlan.dot``, per plan precision, on a plan of 40 terms, as
  GMRES's Hessenberg back substitution calls it: one sweep of a dot of
  every prefix of two normal vectors, 40 terms down to 0, per timed call,
  reported per dot;
- ``matvec``, per format, on A of each ``ir_solve`` stand-in, with a
  normal x stored in the format's dtype, as GMRES stores its basis;
- ``dd_residual`` on A of each ``ir_solve`` stand-in, with a normal x
  pair and b.

Each call is timed on its own and the best of ``--repeat`` calls is kept;
the inputs a call overwrites are restored outside the timed region.  The
stand-ins come from ``perfbench/gen.py`` at ``--seed``, and ``--scale tiny``
takes the workloads' tiny ones; a matrix's row plan is built before its
products are timed.  None of these kernels calls BLAS.

    python tools/kernel_times.py
    python tools/kernel_times.py --seed 2 --repeat 50
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from spai_ir.precision import PairwisePlan, dd_residual, dense_lu, parse_precision  # noqa: E402
from spai_ir.refine import rcm_permutation  # noqa: E402
from spai_ir.sparse import matvec  # noqa: E402

FORMATS = ("half", "single", "double")
PLAN_TERMS = 40  # the Hessenberg plan's length in plan_dot_times


def best_time(call, reset=lambda: None, repeat: int = 20) -> float:
    """The shortest of ``repeat`` timed calls of ``call()``, in microseconds,
    each after an untimed ``reset()``."""
    best = float("inf")
    for _ in range(repeat):
        reset()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e6, 1)


def lu_times(A, repeat: int) -> tuple:
    """``dense_lu`` per format and ``substitute`` per (factor format,
    precision) on the sparse ``A`` in RCM order."""
    B = A.permuted(rcm_permutation(A))
    b = np.full(B.n_rows, 1.0 / np.sqrt(B.n_rows))
    factor, substitute = {}, {}
    for uf in FORMATS:
        fmt = parse_precision(uf)
        factors = dense_lu(B, fmt)
        factor[uf] = best_time(lambda: dense_lu(B, fmt), repeat=repeat)
        for p in FORMATS:
            prec = parse_precision(p)
            substitute[f"{uf}/{p}"] = best_time(lambda: factors.substitute(b, prec), repeat=repeat)
    return factor, substitute


def mgs_times(n: int, seed: int, repeat: int) -> dict:
    """``mgs_step`` per plan precision for vectors of length ``n``."""
    rng = np.random.default_rng(seed)
    v0, w0 = rng.standard_normal(n), rng.standard_normal(n)
    times = {}
    for name in FORMATS:
        p = parse_precision(name)
        dtype = p.dtype or np.float64
        v, w0p = (v0 / np.linalg.norm(v0)).astype(dtype), w0.astype(dtype)
        w, t, plan = w0p.copy(), np.empty(n, dtype), PairwisePlan(n, p)

        def reset():
            w[...] = w0p

        with np.errstate(all="ignore"):
            times[name] = best_time(lambda: plan.mgs_step(v, w, t), reset, repeat)
    return times


def plan_dot_times(seed: int, repeat: int) -> dict:
    """``PairwisePlan.dot`` per plan precision over every prefix of
    ``PLAN_TERMS`` terms, per dot."""
    rng = np.random.default_rng(seed)
    u0, v0 = rng.standard_normal(PLAN_TERMS), rng.standard_normal(PLAN_TERMS)
    times = {}
    for name in FORMATS:
        p = parse_precision(name)
        dtype = p.dtype or np.float64
        plan, u, v = PairwisePlan(PLAN_TERMS, p), u0.astype(dtype), v0.astype(dtype)
        prefixes = [(u[:k], v[:k]) for k in range(PLAN_TERMS, -1, -1)]

        def sweep():
            for a, b in prefixes:
                plan.dot(a, b)

        times[name] = round(best_time(sweep, repeat=repeat) / len(prefixes), 2)
    return times


def product_times(A, seed: int, repeat: int) -> tuple:
    """``matvec`` per format and ``dd_residual`` on the sparse ``A``."""
    rng = np.random.default_rng(seed)
    x, b = rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)
    A.row_plan()
    times = {}
    for name in FORMATS:
        p = parse_precision(name)
        xp = x.astype(p.dtype or np.float64)
        times[name] = best_time(lambda: matvec(A, xp, p), repeat=repeat)
    return times, best_time(lambda: dd_residual(A, (x, x * 2.0**-60), b), repeat=repeat)


def kernel_times(seed: int, scale: str, repeat: int) -> dict:
    """The times of every kernel on the stand-ins of ``scale`` at ``seed``."""
    out = {"dense_lu": {}, "substitute": {}, "mgs_step": {}, "matvec": {}, "dd_residual": {},
           "plan_dot": plan_dot_times(seed, repeat), "seed": seed, "scale": scale, "repeat": repeat}
    for name, make in workloads.LU_MATRICES[scale]:
        A = workloads._system(name, make, seed).A
        out["dense_lu"][name], out["substitute"][name] = lu_times(A, repeat)
    for name, make in workloads.IR_MATRICES[scale]:
        A = workloads._system(name, make, seed).A
        out["mgs_step"][name] = mgs_times(A.n_rows, seed, repeat)
        out["matvec"][name], out["dd_residual"][name] = product_times(A, seed, repeat)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--repeat", type=int, default=20, help="timed calls per kernel; the best is kept")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(json.dumps(kernel_times(args.seed, args.scale, args.repeat), sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
