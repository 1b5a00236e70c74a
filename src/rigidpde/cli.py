"""Command-line front end.

Subcommands
-----------
analyze   scan a coefficient field over a rectangle; exit 0 when elliptic
          everywhere (2 when a node fails the discriminant test, 1 when a
          quantity is NaN or infinite at a node, with the node printed)
table1    the built-in degeneration table of the delta family over the
          reference window [-1/2,1]x[-1,1]
solve     characteristic solve for an initial profile; writes the w and
          (u,v) CSV grids plus a JSON header
verify    residual check of a (u,v) or w grid file; exit 0 iff the max
          residual, relative to the largest term it cancels, beats the
          threshold (2 otherwise)
beltrami  Neumann-iteration baseline for one delta; emits the iteration
          trace CSV and a verdict line
bench     sweep deltas: characteristic timing/residual, condition number,
          optional baseline columns

Report CSVs carry 6 significant digits; JSON output and solution-field
CSVs carry full double precision.  Exit codes: 0 success, 1 bad
arguments or inputs, 2 the command-specific negative verdict.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import __version__
from . import beltrami as bl
from . import bench as bench_mod
from .analysis import (
    RegionScanReport,
    degeneration_table,
    scan_region,
)
from .errors import NotElliptic, RigidPdeError
from .fields import (
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    Region,
    aligned_gridspec,
)
from .transport import (
    F0_GRAMMAR,
    parse_f0,
    read_complex_csv,
    read_real_pair_csv,
    solve_characteristic,
    system_residual,
    to_real_pair,
    transport_relative,
    transport_residual,
    write_complex_csv,
    write_field_header,
    write_real_pair_csv,
)

DEFAULT_SCAN_NOMINAL = 2001
DEFAULT_SOLVE_GRID = (257, 257)
DEFAULT_VERIFY_THRESHOLD = 0.05  # relative: fd truncation of exact
                                 # solutions measures up to 2.5e-2 at 65**2
                                 # and 5.2e-3 at 257**2; corrupted data
                                 # lands at O(1)

_NUMBERISH = re.compile(r"^-[0-9.][0-9.,eE+-]*$")
_VALUE_OPTS = {"--region", "--grid", "--deltas", "--delta", "--L", "--tol",
               "--threshold", "--h", "--margin"}


def _merge_negative_values(argv):
    """Let option values that start with a minus sign (regions, deltas)
    parse without requiring the --opt=value form."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTS and i + 1 < len(argv) and _NUMBERISH.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_region(text: str) -> Region:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"region must be x_min,x_max,y_min,y_max, got {text!r}")
    return Region(*parts)


def _parse_grid(text: str) -> GridSpec:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"grid must be nx,ny, got {text!r}")
    return GridSpec(*parts)


def _emit(text: str, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_field(args):
    if getattr(args, "delta", None) is not None:
        if getattr(args, "field_csv", None):
            raise ValueError("give either --delta or --field-csv, not both")
        return DeltaField(DeltaFamily(args.delta))
    if getattr(args, "field_csv", None):
        return GridTableField.from_csv(args.field_csv)
    raise ValueError("one coefficient source is required: --delta or --field-csv")


# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    field = _load_field(args)
    region = _parse_region(args.region)
    grid = _parse_grid(args.grid)
    if args.align:
        grid = aligned_gridspec(region, grid.nx, grid.ny)
    try:
        report = scan_region(field, region, grid, rigidity_tol=args.rigidity_tol)
    except NotElliptic as exc:
        print(f"not elliptic: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit(report.to_json() + "\n", args.out)
    else:
        _emit(RegionScanReport.CSV_HEADER + "\n" + report.to_csv_row() + "\n",
              args.out)
        if args.out in (None, "-"):
            print(f"# rigid: {str(report.rigid).lower()} "
                  f"(max obstruction {max(report.max_abs_A, report.max_abs_B):.3g}, "
                  f"tol {report.rigidity_tol:g}, {report.partials} partials)")
    return 0


def cmd_table1(args) -> int:
    grid = _parse_grid(args.grid)
    reports = degeneration_table(grid.nx, grid.ny)
    if args.json:
        _emit(json.dumps([r.to_dict() for r in reports], indent=2) + "\n",
              args.out)
    else:
        lines = [RegionScanReport.CSV_HEADER]
        lines += [r.to_csv_row() for r in reports]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_solve(args) -> int:
    fam = DeltaFamily(args.delta)
    f0 = parse_f0(args.f0)
    region = _parse_region(args.region)
    grid = _parse_grid(args.grid)
    w = solve_characteristic(fam, f0, region, grid)
    uv = to_real_pair(fam, w)
    base = args.out
    write_complex_csv(w, f"{base}_w.csv")
    write_real_pair_csv(uv, f"{base}_uv.csv")
    write_field_header(w, f"{base}.json")
    print(f"wrote {base}_w.csv, {base}_uv.csv, {base}.json")
    return 0


def cmd_verify(args) -> int:
    if (args.uv_csv is None) == (args.w_csv is None):
        return _fail("give exactly one of --uv-csv or --w-csv")
    field = _load_field(args)

    if args.uv_csv:
        uv = read_real_pair_csv(args.uv_csv)
        report = system_residual(field, uv, mode="fd", h=args.h)
        rel = report.relative
        print(f"mode: fd (hx={report.hx:.6g}, hy={report.hy:.6g}, "
              "boundary rim excluded)")
        print(f"max |r1| = {report.max_r1:.6g}")
        print(f"max |r2| = {report.max_r2:.6g}")
    else:
        w = read_complex_csv(args.w_csv)
        res = transport_residual(field, w, mode="fd", h=args.h)
        max_res = float(np.abs(res).max())
        rel = transport_relative(w, res, h=args.h)
        print("mode: fd (transport residual, boundary rim excluded)")
        print(f"max |w_x + lambda*w_y| = {max_res:.6g}")
    print(f"relative residual = {rel:.6g} (over the largest cancelled term)")

    ok = rel < args.threshold
    print(f"threshold {args.threshold:.6g}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_beltrami(args) -> int:
    if args.n < 16 or (args.n & (args.n - 1)) != 0:
        return _fail(f"--n must be a power of two >= 16, got {args.n}")
    grid = bl.TorusGrid(args.n, args.L)
    fam = DeltaFamily(args.delta)
    mu = bl.family_mu_on_torus(fam, grid, margin=args.margin)
    problem = bl.BeltramiProblem(mu, grid, tol=args.tol, max_iter=args.max_iter)
    _, trace = bl.solve_beltrami_neumann(problem)
    _emit(trace.to_csv(), args.out)
    est = bl.contraction_estimate(problem.sup_mu)
    descriptor = {
        "n": args.n, "L": args.L, "delta": args.delta, "margin": args.margin,
        "tol": args.tol, "max_iter": args.max_iter, "sup_mu": problem.sup_mu,
        "verdict": trace.verdict, "iterations": trace.iterations,
    }
    print(json.dumps(descriptor))
    print(f"sup|mu| = {problem.sup_mu:.6g} "
          f"(L2 contraction estimate {est:.6g}, {bl.classify_contraction(est)})")
    print(f"verdict: {trace.summary()}")
    return 0


def cmd_bench(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = bench_mod.BenchConfig.from_dict(json.load(fh))
    else:
        cfg = bench_mod.BenchConfig(
            deltas=tuple(float(d) for d in args.deltas.split(",")),
            region=_parse_region(args.region),
            grid=_parse_grid(args.grid),
            f0=args.f0,
            repetitions=args.repetitions,
            include_beltrami=args.beltrami,
        )
    report = bench_mod.run_benchmark(cfg)
    _emit(bench_mod.emit_report(report, "json" if args.json else "csv"),
          args.out)
    return 0  # divergent baseline rows are data, not failures


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidpde",
        description=("Analyze planar first-order elliptic systems, detect "
                     "transport rigidity, solve rigid systems by "
                     "characteristics, and benchmark the elliptic baseline."),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--delta", type=float, default=None,
                       help="built-in family parameter (> 0)")
        p.add_argument("--field-csv", default=None,
                       help="coefficient table CSV with header x,y,alpha,beta")

    p = sub.add_parser("analyze", help="scan a field over a rectangle")
    add_source(p)
    p.add_argument("--region", default="-0.5,1,-1,1",
                   help="x_min,x_max,y_min,y_max (default: reference window)")
    p.add_argument("--grid", default="2001,2001", help="nx,ny scan resolution")
    p.add_argument("--align", action="store_true", default=True,
                   help="snap node counts so the coordinate axes are nodes")
    p.add_argument("--no-align", dest="align", action="store_false")
    p.add_argument("--rigidity-tol", type=float, default=None,
                   help="override the rigidity verdict tolerance")
    p.add_argument("--json", dest="json", action="store_true",
                   help="emit JSON instead of CSV")
    p.add_argument("--csv", dest="json", action="store_false",
                   help="emit CSV (default)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_analyze, json=False)

    p = sub.add_parser("table1",
                       help="degeneration table of the built-in family")
    p.add_argument("--grid", default=f"{DEFAULT_SCAN_NOMINAL},{DEFAULT_SCAN_NOMINAL}",
                   help="nominal nx,ny (aligned per axis)")
    p.add_argument("--json", dest="json", action="store_true")
    p.add_argument("--csv", dest="json", action="store_false")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table1, json=False)

    p = sub.add_parser("solve", help="characteristic solve on a grid")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--f0", required=True, help=f"initial profile; {F0_GRAMMAR}")
    p.add_argument("--region", default="-0.5,1,-1,1")
    p.add_argument("--grid", default=f"{DEFAULT_SOLVE_GRID[0]},{DEFAULT_SOLVE_GRID[1]}")
    p.add_argument("--out", required=True, help="output basename")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="residual check of a solution file")
    add_source(p)
    p.add_argument("--uv-csv", default=None, help="x,y,u,v grid file")
    p.add_argument("--w-csv", default=None, help="x,y,re,im grid file")
    p.add_argument("--h", type=float, default=None,
                   help="fd step (integer multiple of the grid spacing)")
    p.add_argument("--threshold", type=float, default=DEFAULT_VERIFY_THRESHOLD,
                   help="pass iff the relative residual < threshold")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("beltrami", help="Neumann-iteration baseline run")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=256, help="grid nodes per axis")
    p.add_argument("--L", type=float, default=4.0, help="torus box half-width")
    p.add_argument("--margin", type=float, default=bl.DEFAULT_TRUNCATION_MARGIN)
    p.add_argument("--tol", type=float, default=bl.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=bl.DEFAULT_MAX_ITER)
    p.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p.set_defaults(func=cmd_beltrami)

    p = sub.add_parser("bench", help="delta sweep cost report")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--deltas", default="1,1e-2,1e-4")
    p.add_argument("--region", default="-0.5,1,-1,1")
    p.add_argument("--grid", default="512,512")
    p.add_argument("--f0", default="exp:1,0")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--beltrami", action="store_true",
                   help="include the Neumann baseline columns")
    p.add_argument("--no-beltrami", dest="beltrami", action="store_false")
    p.add_argument("--json", dest="json", action="store_true")
    p.add_argument("--csv", dest="json", action="store_false")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench, json=False)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        return args.func(args)
    except (RigidPdeError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
