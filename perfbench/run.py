#!/usr/bin/env python3
"""Benchmark of the spai_ir toolkit: SPAI sweep, refinement solves and
dense-LU baselines.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spai_sweep --seed 1 --seconds 25 --trace 0

A run sets the inputs up from the seed (several times, reporting the
median set-up time), then repeats whole rounds of the workload's
operations until ``--seconds`` have passed, at least twice.  Every
operation's first result is checked independently of the program and every
later result must repeat it byte for byte.  The run prints each metric with
its unit and the operations attempted and failed; its last line is one JSON
object.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from a traced set-up and traced
rounds, and writes the spans to ``perfbench/out/``.  ``--workload all`` runs
every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spai_sweep", "ir_solve", "lu_baseline")
# one process does all the work: keep BLAS to one thread as well
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for smoke tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spai_ir" / "__init__.py").is_file():
        print(f"error: no spai_ir source tree at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(HERE)]
    import spai_ir

    if Path(spai_ir.__file__).resolve().parent != SRC / "spai_ir":
        print(f"error: imported spai_ir from {spai_ir.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from harness import measure

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
