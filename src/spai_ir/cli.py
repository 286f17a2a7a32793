"""Command-line harness: single solves, parameter sweeps, and golden-table
reproduction.

--matrix is a .mtx path or a name in the matrix directory (see
reference.matrix_dir).  Exit 0 on success, 2 on non-convergence or a
failed table band, 1 on one "error:" line for a usage, input or
arithmetic error or an unwritable --out.  sweep records a failing cell as
a row with status "error: ...", runs the rest, and exits 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .precision import parse_precision
from .reference import GOLDEN_TABLES, find_matrix
from .refine import SOLVERS, IrConfig
from .spai import SpaiParams
from .sparse import MatrixMarketParseError, load_matrix_market
from .tables import result_row, run_sweep, run_table, solve_system

SWEEP_FIELDS = [
    "matrix", "eps", "uf", "nnz", "kappa_tilde", "estimate", "feasible",
    "satisfied_all", "status",
]
TABLE_FIELDS = [
    "table", "matrix", "precond", "eps", "uf", "kappa_tilde", "nnz", "steps",
    "iters_per_step", "total_iters", "converged", "ferr", "nbe",
    "ref_kappa_tilde", "ref_nnz", "ref_total_iters", "nnz_ok", "iters_ok", "status",
]
# solve rows reuse the golden-table schema (ref_* columns empty for ad-hoc
# runs) with the precision/tolerance configuration appended
SOLVE_FIELDS = TABLE_FIELDS + ["u", "ur", "tau", "stagnated"]


def _parse_precisions(spec: str):
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) not in (3, 5):
        raise ValueError("--precisions expects uf,u,ur or uf,u,ur,ug,up")
    ps = [parse_precision(p) for p in parts]
    return ps + [None] * (5 - len(ps))  # ug and up left unset run in u


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _to_csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        flat = dict(row)
        if isinstance(flat.get("iters_per_step"), list):
            flat["iters_per_step"] = " ".join(str(v) for v in flat["iters_per_step"])
        writer.writerow(flat)
    return buf.getvalue()


def _load(matrix_arg: str):
    path = find_matrix(matrix_arg)
    if path is None:
        raise FileNotFoundError(
            f"matrix {matrix_arg!r} not found (looked for a path and in the matrix directory)"
        )
    return load_matrix_market(path), path.stem


def cmd_solve(args) -> int:
    A, name = _load(args.matrix)
    uf, u, ur, ug, up = _parse_precisions(args.precisions)
    outcome = solve_system(
        A, name, args.solver, uf, u, ur, ug=ug, up=up,
        eps=args.eps, alpha=args.alpha, beta=args.beta, tau=args.tau,
        i_max=args.imax,
    )
    rep = outcome.report
    details = rep.details
    row = result_row(name, args.solver, args.eps if args.solver == "spai" else None, uf.name, outcome)
    row.update(table="", solver=args.solver, precond_nnz=details["precond_nnz"],
               u=u.name, ur=ur.name, tau=details["tau"], stagnated=rep.stagnated)
    if args.json:
        payload = dict(row)
        payload["report"] = rep.to_dict()
        _emit(_to_json(payload), args.out)
    elif args.csv:
        _emit(_to_csv([row], SOLVE_FIELDS), args.out)
    else:
        lines = [
            f"matrix        : {name} (n={A.n_rows}, nnz={A.nnz})",
            f"solver        : {args.solver}"
            + (f" (eps={args.eps}, beta={args.beta})" if args.solver == "spai" else ""),
            "precisions    : " + " ".join(f"{k}={v}" for k, v in details["precisions"].items()),
            f"tau           : {details['tau']:g}",
            f"precond nnz   : {details['precond_nnz']}",
            f"kappa(PA)     : {outcome.kappa_tilde:.3e}" if outcome.kappa_tilde is not None else "kappa(PA)     : n/a",
            f"steps/iters   : {rep.total_gmres_iters}({', '.join(map(str, rep.gmres_iters_per_step))})",
            f"converged     : {rep.converged} (stagnated={rep.stagnated})",
            f"final ferr/nbe: {rep.ferr_history[-1]:.3e} / {rep.nbe_history[-1]:.3e}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.converged else 2


def cmd_sweep(args) -> int:
    A, name = _load(args.matrix)
    eps_grid = [float(t) for t in args.eps_grid.split(",")]
    uf_list = [parse_precision(t) for t in args.uf_list.split(",")]
    rows = run_sweep(A, name, eps_grid, uf_list, beta=args.beta)
    if args.json:
        _emit(_to_json(rows), args.out)
    else:
        _emit(_to_csv(rows, SWEEP_FIELDS), args.out)
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def cmd_table(args) -> int:
    solvers = set(args.solvers.split(",")) if args.solvers else None
    rows = run_table(args.name, solvers=solvers, with_kappa=not args.no_kappa)
    for row in rows:
        row["table"] = args.name
    if args.json:
        _emit(_to_json(rows), args.out)
    elif args.csv:
        _emit(_to_csv(rows, TABLE_FIELDS), args.out)
    else:
        lines = []
        for r in rows:
            if r["status"] == "missing":
                lines.append(f"{r['matrix']:>10} {r['precond']:>5} eps={str(r['eps']):>5}  MISSING")
                continue
            band = ""
            if r["precond"] in ("spai", "none"):
                band = f"  nnz_ok={r['nnz_ok']} iters_ok={r['iters_ok']}"
            kappa = f"{r['kappa_tilde']:.1e}" if r["kappa_tilde"] is not None else "n/a"
            per_step = ", ".join(map(str, r["iters_per_step"]))
            lines.append(
                f"{r['matrix']:>10} {r['precond']:>5} eps={str(r['eps']):>5} "
                f"kappa={kappa} nnz={r['nnz']:>7} "
                f"iters={r['total_iters']}({per_step}) "
                f"[ref {r['ref_nnz']}, {r['ref_total_iters']}]{band}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    missing = any(r["status"] == "missing" for r in rows)
    failed = any(
        r["status"] == "ok" and r["precond"] in ("spai", "none")
        and not (r.get("nnz_ok", True) and r.get("iters_ok", True))
        for r in rows
    )
    return 2 if (missing or failed) else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too, raise ``ValueError`` for
    :func:`main`'s one line, not argparse's usage block and exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="spai-ir", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    form = common.add_mutually_exclusive_group()
    form.add_argument("--json", action="store_true", help="emit JSON")
    form.add_argument("--csv", action="store_true", help="emit CSV")

    sp = sub.add_parser("solve", parents=[common], help="run one refinement solve")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--solver", choices=SOLVERS, default="spai")
    sp.add_argument("--precisions", default="s,d,q", help="uf,u,ur[,ug,up]; letters h s d q")
    sp.add_argument("--eps", type=float, default=0.3, help="SPAI column tolerance")
    sp.add_argument("--alpha", type=int, default=None,
                    help="max augmentation rounds (default ceil(n/beta)); a capped column may stay above eps")
    sp.add_argument("--beta", type=int, default=SpaiParams.beta, help="indices added per round")
    sp.add_argument("--tau", type=float, default=None, help="GMRES tolerance (default by working precision)")
    sp.add_argument("--imax", type=int, default=IrConfig.i_max, help="max refinement steps")
    sp.set_defaults(func=cmd_solve)

    sw = sub.add_parser("sweep", parents=[common], help="preconditioner grid over eps and build precision")
    sw.add_argument("--matrix", required=True)
    sw.add_argument("--eps-grid", default="0.1,0.2,0.3,0.4,0.5")
    sw.add_argument("--uf-list", default="s,d")
    sw.add_argument("--beta", type=int, default=SpaiParams.beta)
    sw.set_defaults(func=cmd_sweep)

    tb = sub.add_parser("table", parents=[common], help="reproduce a golden table")
    tb.add_argument("name", choices=sorted(GOLDEN_TABLES))
    tb.add_argument("--solvers", default=None, help="comma subset of spai,lu,none")
    tb.add_argument("--no-kappa", action="store_true", help="skip the dense kappa(PA) diagnostic")
    tb.set_defaults(func=cmd_table)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ArithmeticError, OSError, MatrixMarketParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
