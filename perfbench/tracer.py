"""Outside-in trace of the spai_ir layers.

The tracer replaces module attributes with wrappers for the length of a
traced run and puts the originals back afterwards; nothing in the program
is edited.  A function is wrapped under every module that binds it, since
an importer's ``from .precision import fl_dot`` makes its own name that
the importer's code looks up.  Coarse calls record spans (name, start,
end, parent); hot inner calls accumulate time without spans; the scalar
kernels only count calls.  Self time is a call's time minus that of the
timed calls made inside it.  A name that no longer exists is listed as
absent and its figures read zero.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

SPAN, TIMED, COUNT = "span", "timed", "count"

# (layer name, kind, modules that bind the function, attribute)
TARGETS = [
    ("spai.build_left_preconditioner", SPAN, ("spai", "refine", "tables"), "build_left_preconditioner"),
    ("spai.build_spai", SPAN, ("spai",), "build_spai"),
    ("spai.solve_column_ls", TIMED, ("spai",), "solve_column_ls"),
    ("spai.augment_pattern", TIMED, ("spai",), "augment_pattern"),
    ("sparse.extract_submatrix", TIMED, ("sparse", "spai"), "extract_submatrix"),
    ("sparse.shadow", COUNT, ("sparse", "spai"), "shadow"),
    ("precision.fl_dot", COUNT, ("precision", "spai", "krylov"), "fl_dot"),
    ("precision.fl_sum", COUNT, ("precision", "spai"), "fl_sum"),
    ("precision.fl_op", COUNT, ("precision", "spai", "krylov", "refine"), "fl_op"),
    ("krylov.pgmres_left", SPAN, ("krylov", "refine"), "pgmres_left"),
    ("krylov.apply_precond_matvec", TIMED, ("krylov",), "apply_precond_matvec"),
    ("sparse.matvec", TIMED, ("sparse", "krylov", "refine"), "matvec"),
    ("refine.run_ir", SPAN, ("refine", "tables"), "run_ir"),
    ("refine.prepare_solver", SPAN, ("refine", "tables"), "prepare_solver"),
    ("refine.measure_errors", SPAN, ("refine",), "measure_errors"),
    ("refine.dense_lu", SPAN, ("refine",), "dense_lu"),
    ("precision.dd_residual", SPAN, ("precision", "refine"), "dd_residual"),
    ("precision.dd_solve", SPAN, ("precision", "refine"), "dd_solve"),
    ("tables.solve_system", SPAN, ("tables",), "solve_system"),
    ("analysis.kappa_inf_product", SPAN, ("analysis", "tables"), "kappa_inf_product"),
    ("analysis.cond2_transpose", SPAN, ("analysis", "tables"), "cond2_transpose"),
    ("analysis.kappa_inf", SPAN, ("analysis", "tables"), "kappa_inf"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _dense_lu_label(args, kwargs):
    uf = _arg(args, kwargs, 1, "uf")
    return "refine.dense_lu." + getattr(uf, "name", "unknown")


class Tracer:
    """Records spans, timings and counts while installed."""

    def __init__(self):
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self.raw: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id or None, child time]
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, kind, modules, attr in TARGETS:
            found = False
            for mod_name in modules:
                module = importlib.import_module(f"spai_ir.{mod_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"spai_ir.{mod_name}.{attr}")
                    continue
                found = True
                setattr(module, attr, self._wrap(layer, kind, original))
                self._patched.append((module, attr, original))
            if not found:
                self.absent.append(layer)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, kind, fn):
        raw = self.raw
        if kind == COUNT:
            key = layer + ".calls"

            def counted(*args, **kwargs):
                raw[key] += 1
                return fn(*args, **kwargs)

            return counted

        observe = _OBSERVERS.get(layer)
        label_of = _dense_lu_label if layer == "refine.dense_lu" else None
        stack, clock, spans = self._stack, time.perf_counter, self.spans
        record = kind == SPAN

        def timed(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else layer
            span_id = None
            if record:
                span_id = self._next_id
                self._next_id += 1
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                raw[label + ".calls"] += 1
                raw[label + ".s"] += dur
                raw[label + ".self_s"] += dur - frame[1]
                if record:
                    spans.append({"id": span_id, "name": label, "start": t0, "end": t1, "parent": parent})
            if observe is not None:
                observe(raw, result, args, kwargs)
            return result

        return timed

    def take(self) -> dict[str, float]:
        """Raw sums since the last call, then start again from zero."""
        out = dict(self.raw)
        self.raw.clear()
        return out


def _observe_build_spai(raw, pre, args, kwargs):
    raw["spai.precond_nnz"] += getattr(pre, "nnz", 0)


def _observe_augment(raw, grown, args, kwargs):
    before = _arg(args, kwargs, 3, "Jk")
    raw["spai.augment_attempted"] += 1
    if before is not None and len(grown) > len(before):
        raw["spai.augment_grew"] += 1


def _observe_gmres(raw, result, args, kwargs):
    raw["krylov.gmres_iters"] += getattr(result[1], "iters", 0)


def _observe_run_ir(raw, result, args, kwargs):
    raw["refine.ir_steps"] += getattr(result[1], "steps", 0)


_OBSERVERS = {
    "spai.build_spai": _observe_build_spai,
    "spai.augment_pattern": _observe_augment,
    "krylov.pgmres_left": _observe_gmres,
    "refine.run_ir": _observe_run_ir,
}


def layer_metrics(raw: dict[str, float], names) -> dict[str, float]:
    """Per-layer figures for ``names`` from raw sums; layers not called read 0."""
    derived = {
        "spai.augment_grew_ratio": _ratio(raw.get("spai.augment_grew", 0.0), raw.get("spai.augment_attempted", 0.0)),
        "krylov.s_per_iter": _ratio(raw.get("krylov.pgmres_left.s", 0.0), raw.get("krylov.gmres_iters", 0.0)),
    }
    return {name: float(derived[name] if name in derived else raw.get(name, 0.0)) for name in names}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
