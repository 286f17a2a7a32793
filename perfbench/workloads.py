"""The three workloads: what one operation is, its inputs and its checks.

Every call into the program goes through a module attribute of a public
name (``spai.build_left_preconditioner``, ``refine.run_ir``, ...) so that
the tracer, which swaps those attributes, sees the same calls the timed
runs make.  A set-up makes each of its steps through ``call(fn, *args)``,
which times the step on its own.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse as sp

import checks
import gen
from spai_ir import analysis, precision, refine, spai, sparse, tables

# (uf, u, ur) of the published hsd and sdq tables
PRECISION_SETS = {
    "hsd": (precision.HALF, precision.SINGLE, precision.DOUBLE),
    "sdq": (precision.SINGLE, precision.DOUBLE, precision.QUAD),
}


@dataclass
class Operation:
    """One timed call; ``check`` validates a result on its own and
    ``fingerprint`` gives the bytes a rerun must reproduce exactly."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], bytes]


@dataclass
class System:
    name: str
    A_csr: sp.csr_matrix  # the generated matrix, kept for the checks
    A: sparse.SparseMatrix  # the same matrix as the program holds it
    b: np.ndarray

    @functools.cached_property
    def x_true(self) -> np.ndarray:
        """Independent double-precision solution, made on first use by a check."""
        return checks.independent_solution(self.A_csr, self.b)


def _system(name: str, make, seed: int) -> System:
    A_csr = make(seed)
    coo = A_csr.tocoo()
    n = A_csr.shape[0]
    A = sparse.SparseMatrix.from_coo(n, n, coo.row, coo.col, coo.data)
    # the right-hand side of the published runs: equal entries, unit 2-norm
    return System(name, A_csr, A, np.full(n, 1.0 / np.sqrt(n)))


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True, default=str).encode()


# ---------------------------------------------------------------------------
# spai_sweep: one cell of a preconditioner sweep
# ---------------------------------------------------------------------------

# desk-scale members of the shipped families; eps 0.2 needs hundreds of
# augmentation rounds per build, eps 0.5 keeps (nearly) the identity pattern
SWEEP_MATRICES = {
    "full": [
        ("dd_rand_64", lambda s: gen.dd_rand(64, s)),
        ("colscale_80", lambda s: gen.colscale(80, s)),
        ("band_asym_120", lambda s: gen.band_asym(120, s)),
    ],
    "tiny": [
        ("dd_rand_16", lambda s: gen.dd_rand(16, s)),
        ("band_asym_24", lambda s: gen.band_asym(24, s)),
    ],
}
SWEEP_EPS = (0.2, 0.3, 0.5)
SWEEP_UF = (precision.HALF, precision.SINGLE)


class SpaiSweep:
    name = "spai_sweep"
    setup_repeats = 5

    def setup(self, seed: int, scale: str, call):
        systems = []
        for name, make in SWEEP_MATRICES[scale]:
            s = call(_system, name, make, seed)
            # a sweep computes the transpose's condition measure once per matrix
            call(analysis.cond2_transpose, s.A)
            systems.append(s)
        return systems

    def check_setup(self, systems) -> None:
        pass

    def operations(self, systems) -> list[Operation]:
        return [self._cell(s, eps, uf) for s in systems for eps in SWEEP_EPS for uf in SWEEP_UF]

    @staticmethod
    def _cell(s: System, eps: float, uf) -> Operation:
        def run():
            pre = spai.build_left_preconditioner(s.A, spai.SpaiParams(eps=eps, uf=uf))
            return pre, analysis.kappa_inf_product(pre.P, s.A)

        def check(result):
            pre, kappa = result
            P = pre.P
            checks.require(bool(pre.all_satisfied), "not every column met the tolerance")
            Pc = checks.csc_from_arrays(P.n_rows, P.indptr, P.indices, P.data)
            checks.check_preconditioner(s.A_csr, Pc, eps)
            expect = np.linalg.cond((Pc @ s.A_csr).toarray(), np.inf)
            checks.require(
                abs(kappa - expect) <= 1e-8 * expect, f"kappa(PA) {kappa:.6e} != {expect:.6e}"
            )

        def fingerprint(result):
            pre, kappa = result
            return _bytes(pre.P.indptr, pre.P.indices, pre.P.data) + struct.pack("<d", kappa)

        return Operation(f"{s.name}/eps={eps}/{uf.name}", run, check, fingerprint)


# ---------------------------------------------------------------------------
# ir_solve: one five-precision refinement run on prepared inputs
# ---------------------------------------------------------------------------

IR_MATRICES = {
    "full": [
        ("conv_diff_900", lambda s: gen.conv_diff_2d(30, s)),
        ("stencil3d_960", lambda s: gen.stencil_3d((12, 20, 4), s)),
    ],
    "tiny": [
        ("conv_diff_36", lambda s: gen.conv_diff_2d(6, s)),
        ("stencil3d_24", lambda s: gen.stencil_3d((2, 4, 3), s)),
    ],
}
# two SPAI sparsity levels, then no preconditioner
IR_SOLVERS = (("spai", 0.45), ("spai", 0.5), ("none", None))
# GMRES tolerances.  At the table value 1e-4, hsd's first refinement step
# ends within a factor of two of the n*u stopping threshold on these inputs,
# so the seed decides between one and two steps; one decade lower puts it
# a factor of six or more below, and every seed takes one step.
IR_TAU = {"hsd": 1e-5, "sdq": 1e-8}


@dataclass
class IrCase:
    system: System
    label: str
    cfg: refine.IrConfig
    prepared: object
    x_ref: tuple
    u: float
    forward_check: bool


class IrSolve:
    name = "ir_solve"
    setup_repeats = 3

    def setup(self, seed: int, scale: str, call):
        """Preconditioners and one double-double reference per matrix, as a table run builds them."""
        cases = []
        for name, make in IR_MATRICES[scale]:
            s = call(_system, name, make, seed)
            x_ref = call(precision.dd_solve, s.A, s.b)
            for pset, (uf, u, ur) in PRECISION_SETS.items():
                for solver, eps in IR_SOLVERS:
                    cfg = refine.IrConfig(
                        uf=uf, u=u, ur=ur, solver=solver, tau=IR_TAU[pset],
                        spai=spai.SpaiParams(eps=eps, uf=uf) if solver == "spai" else None,
                    )
                    label = f"{name}/{pset}/{solver}" + (f"/eps={eps}" if eps else "")
                    cases.append(IrCase(s, label, cfg, call(refine.prepare_solver, s.A, cfg), x_ref,
                                        u.unit_roundoff, pset == "hsd"))
        return cases

    def check_setup(self, cases) -> None:
        seen = set()
        for c in cases:
            if c.system.name not in seen:
                seen.add(c.system.name)
                checks.check_reference(c.system.A_csr, c.system.b, c.x_ref)

    def operations(self, cases) -> list[Operation]:
        def op(c: IrCase) -> Operation:
            def run():
                return refine.run_ir(c.system.A, c.system.b, c.cfg, solver=c.prepared, x_ref=c.x_ref)

            def check(result):
                x, report = result
                checks.require(bool(report.converged), "refinement did not converge")
                s = c.system
                checks.check_solution(s.A_csr, s.b, x, c.u, s.x_true if c.forward_check else None)

            return Operation(c.label, run, check, lambda r: _bytes(r[0]) + _report_bytes(r[1]))

        return [op(c) for c in cases]


# ---------------------------------------------------------------------------
# lu_baseline: one dense-LU-preconditioned solve with its own reference
# ---------------------------------------------------------------------------

LU_MATRICES = {
    "full": [
        ("conv_diff_529", lambda s: gen.conv_diff_2d(23, s)),
        ("stencil3d_550", lambda s: gen.stencil_3d((10, 11, 5), s)),
    ],
    "tiny": [
        ("conv_diff_25", lambda s: gen.conv_diff_2d(5, s)),
        ("stencil3d_18", lambda s: gen.stencil_3d((3, 3, 2), s)),
    ],
}


class LuBaseline:
    name = "lu_baseline"
    setup_repeats = 5

    def setup(self, seed: int, scale: str, call):
        return [call(_system, name, make, seed) for name, make in LU_MATRICES[scale]]

    def check_setup(self, systems) -> None:
        pass

    def operations(self, systems) -> list[Operation]:
        def op(s: System, pset: str) -> Operation:
            uf, u, ur = PRECISION_SETS[pset]

            def run():
                return tables.solve_system(s.A, s.name, "lu", uf, u, ur)

            def check(outcome):
                checks.require(bool(outcome.report.converged), "refinement did not converge")
                kappa = outcome.kappa_tilde
                checks.require(kappa is not None and np.isfinite(kappa) and kappa >= 1.0,
                                f"kappa diagnostic {kappa!r} is not a condition number")
                checks.check_solution(s.A_csr, s.b, outcome.x, u.unit_roundoff,
                                      s.x_true if pset == "hsd" else None)

            def fingerprint(outcome):
                return _bytes(outcome.x) + _report_bytes(outcome.report) + struct.pack("<d", outcome.kappa_tilde)

            return Operation(f"{s.name}/{pset}/lu", run, check, fingerprint)

        return [op(s, pset) for s in systems for pset in PRECISION_SETS]


WORKLOADS = {w.name: w for w in (SpaiSweep(), IrSolve(), LuBaseline())}
