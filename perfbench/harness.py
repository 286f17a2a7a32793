"""Measurement loop: set-up, whole rounds of operations, checks and metrics.

Imported by ``run.py`` once the thread limits are in the environment.

Times are reported in reference seconds.  The host this benchmark was built
on changes speed by up to a factor of two within seconds (one fixed SPAI
build took 0.23-0.48 s within a minute), which no bound could absorb.  So
every timed call is bracketed by a fixed calibration kernel that runs none
of the program, and the call's wall seconds are scaled by
``REFERENCE_CALIBRATION_S`` over the mean of the kernel's times just before
and just after it.  On a machine running at the reference speed both read
the same.  A change to the program moves reference seconds as it moves wall
seconds, since the kernel does not depend on the program; the wall seconds
are printed alongside.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from checks import CheckFailed
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
# the calibration kernel's time on the reference machine (see README.md)
REFERENCE_CALIBRATION_S = 3.0e-3


def calibration_kernel() -> float:
    """Small-array rounding and interpreter arithmetic, the mix the workloads run."""
    a = np.linspace(0.1, 1.0, 64)
    acc = 0.0
    for i in range(600):
        v = (a * (i + 1)).astype(np.float16).astype(np.float64)
        acc += float(v.sum()) + (i * i) % 7
    return acc


class Clock:
    """Times calls in reference seconds and in wall seconds."""

    def __init__(self):
        self.calibrations: list[float] = []
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        calibration_kernel()
        dt = time.perf_counter() - t0
        self.calibrations.append(dt)
        return dt

    def call(self, fn):
        """``(result, reference seconds, wall seconds)`` of ``fn()``; exceptions propagate."""
        before = self._last
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self._last = self._calibrate()
        return result, wall * REFERENCE_CALIBRATION_S * 2.0 / (before + self._last), wall


class Tally:
    """Operations attempted and failed, and the first result of each operation."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.fingerprints: dict[str, bytes] = {}

    def problem(self, where: str, exc: BaseException, wrong: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        print(f"{'WRONG' if wrong else 'FAILED'} {where}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def run_op(self, op) -> tuple[float, float] | None:
        """Time one call, then check it; returns its reference and wall seconds, or None if it raised."""
        self.attempted += 1
        try:
            result, ref, wall = self.clock.call(op.run)
        except Exception as exc:  # an operation that raises is counted, the run goes on
            self.problem(op.label, exc, wrong=False)
            return None
        try:
            fp = op.fingerprint(result)
            first = self.fingerprints.get(op.label)
            if first is None:
                op.check(result)
                self.fingerprints[op.label] = fp
            elif fp != first:
                raise CheckFailed("result differs from the first run of the same operation")
        except CheckFailed as exc:
            self.problem(op.label, exc, wrong=True)
        return ref, wall


def run_rounds(ops, seconds: float, min_rounds: int, tally: Tally):
    """Whole rounds until ``seconds`` have passed.

    Returns each operation's reference seconds, its wall seconds, and the
    number of rounds.
    """
    ref: dict[str, list[float]] = {op.label: [] for op in ops}
    wall: dict[str, list[float]] = {op.label: [] for op in ops}
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for op in ops:
            t = tally.run_op(op)
            if t is not None:
                ref[op.label].append(t[0])
                wall[op.label].append(t[1])
        rounds += 1
    return ref, wall, rounds


def round_seconds(times: dict[str, list[float]]) -> float:
    """Time of one round, each operation taken at its median over the rounds."""
    return sum(statistics.median(t) for t in times.values() if t)


def op_median(times: dict[str, list[float]]) -> float:
    """Median over the operations of each operation's median time."""
    return statistics.median(statistics.median(t) for t in times.values() if t)


def timed_setup(wl, seed: int, scale: str, clock: Clock):
    """``(state, reference seconds, wall seconds)`` of one set-up, timed step by step.

    A set-up can take seconds, long enough for the host's speed to change
    within it, so each step gets its own calibration.
    """
    ref = wall = 0.0

    def call(fn, *args):
        nonlocal ref, wall
        result, r, w = clock.call(lambda: fn(*args))
        ref += r
        wall += w
        return result

    state = wl.setup(seed, scale, call)
    return state, ref, wall


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str, spec: dict):
    """One run of one workload; returns the result object the command prints last."""
    wl = WORKLOADS[name]
    clock = Clock()
    tally = Tally(clock)
    setup_ref, setup_wall = [], []
    for _ in range(1 if trace else wl.setup_repeats):
        state, ref_s, wall_s = timed_setup(wl, seed, scale, clock)
        setup_ref.append(ref_s)
        setup_wall.append(wall_s)
    try:
        wl.check_setup(state)
    except CheckFailed as exc:
        tally.correct = False
        print(f"WRONG set-up: {exc}", file=sys.stderr)
    ops = wl.operations(state)

    if not trace:
        times, wall, rounds = run_rounds(ops, seconds, 2, tally)
        values = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": round_seconds(times),
            "op_s.p50": op_median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        summary = (f"{rounds} rounds of {len(ops)} operations; in wall seconds setup_s "
                   f"{statistics.median(setup_wall):.6g}, wall_s {round_seconds(wall):.6g}, "
                   f"op_s.p50 {op_median(wall):.6g}")
    else:
        plain, _, n_plain = run_rounds(ops, seconds / 2, 1, tally)
        tracer = Tracer().install()
        try:
            traced_state = timed_setup(wl, seed, scale, clock)[0]
            setup_raw = tracer.take()
            traced, _, n_traced = run_rounds(wl.operations(traced_state), seconds / 2, 1, tally)
            round_raw = tracer.take()
        finally:
            tracer.uninstall()
        # one set-up plus the mean of one round
        raw = {k: setup_raw.get(k, 0.0) + round_raw.get(k, 0.0) / n_traced
               for k in setup_raw.keys() | round_raw.keys()}
        raw["trace.overhead_s"] = round_seconds(traced) - round_seconds(plain)
        wanted = spec["per_layer"]
        values = layer_metrics(raw, [m["name"] for m in wanted])
        summary = f"{n_plain} plain and {n_traced} traced rounds of {len(ops)} operations"
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": name, "seed": seed, "scale": scale,
            "plain_op_s": plain, "traced_op_s": traced,
            "layers": values, "raw": raw, "absent": tracer.absent, "spans": tracer.spans,
        }, sort_keys=True))
        summary += f"; spans in {path}"
        if tracer.absent:
            summary += f"; absent: {', '.join(tracer.absent)}"

    calib_ms = 1e3 * statistics.median(clock.calibrations)
    print(f"{name} seed={seed}: {summary}; calibration kernel {calib_ms:.4g} ms "
          f"(reference {1e3 * REFERENCE_CALIBRATION_S:.4g} ms)")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, outputs {'correct' if tally.correct else 'WRONG'}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:<14.6g} {m['unit']}")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
