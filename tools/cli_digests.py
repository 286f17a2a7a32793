#!/usr/bin/env python3
"""Print digests of the command-line runs of ``spai-ir``, to compare two trees.

The runs are ``solve --json`` on each shipped matrix with every solver
(spai, lu, none, sir) and the precision sets h,s,d / s,d,q / h,h,d,h,h /
d,s,d / d,s,d,s,h (the last two apply double LU factors in single and in
half), ``sweep --json`` on each matrix, and ``table t4|t5|t6 --json``: 129
runs over the six shipped matrices.  Each runs in this process through
``spai_ir.cli.main``; its key maps to the SHA-256 of its stdout and of its
stderr and to its exit code.  The output is JSON with sorted keys, so the
outputs of two trees compare with ``diff``:

    PYTHONPATH=src python tools/cli_digests.py > digests.json
    PYTHONPATH=src python tools/cli_digests.py --matrix colscale_80
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spai_ir import cli  # noqa: E402
from spai_ir.reference import SYNTHETIC  # noqa: E402

SOLVERS = ("spai", "lu", "none", "sir")
PRECISION_SETS = ("h,s,d", "s,d,q", "h,h,d,h,h", "d,s,d", "d,s,d,s,h")
TABLES = ("t4", "t5", "t6")


def runs(matrices) -> dict:
    """The command line of every run, by key: the solves and sweep of each
    matrix, then the tables."""
    out = {}
    for name in matrices:
        for solver in SOLVERS:
            for precisions in PRECISION_SETS:
                out[f"solve/{name}/{solver}/{precisions}"] = [
                    "solve", "--matrix", name, "--solver", solver, "--precisions", precisions, "--json"]
        out[f"sweep/{name}"] = ["sweep", "--matrix", name, "--json"]
    for table in TABLES:
        out[f"table/{table}"] = ["table", table, "--json"]
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list) -> dict:
    """One run of the command line in this process: its exit code and the
    digests of what it wrote to stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"exit": code, "stderr": sha256(stderr.getvalue()), "stdout": sha256(stdout.getvalue())}


def digests(matrices=SYNTHETIC) -> dict:
    return {key: run(argv) for key, argv in runs(matrices).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--matrix", action="append", choices=SYNTHETIC,
                    help="a shipped matrix to run (repeatable; default all six)")
    args = ap.parse_args(argv)
    result = digests(args.matrix or SYNTHETIC)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
