"""Command-line front end: single solves, golden tables, figure data, scans.

Exit codes: 0 success, 1 usage error, 2 solver error, 3 tolerance or
convergence failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tables
from .engine import DEFAULT_ORDER, DEFAULT_PADE
from .errors import PsletError
from .oracle import cross_check
from .quantum_dot import (
    DotParams,
    StateLabel,
    TwoElectronLevel,
    ion_record,
    scan_spectrum,
    two_electron_record,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_TOLERANCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslet",
        description="Quantum-dot spectra from the shifted angular-momentum expansion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"correction order of the expansion (default {DEFAULT_ORDER})")
        p.add_argument("--pade", type=int, nargs=2, default=list(DEFAULT_PADE),
                       metavar=("M", "N"), help="Pade degrees (default 9 10)")
        p.add_argument("--precision", choices=("auto", "double", "extended"), default="auto")
        p.add_argument("--oracle", action="store_true",
                       help="append the finite-difference cross-check delta")
        p.add_argument("--output", type=Path, default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "tsv"), default="csv")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_solve = sub.add_parser("solve", help="solve a single state")
    p_solve.add_argument("--system", choices=("ion", "two_electron"), required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--K", type=int, default=0, help="center-of-mass radial index")
    p_solve.add_argument("--M", type=int, default=0, help="center-of-mass azimuthal index")
    p_solve.add_argument("--gamma", type=float, required=True)
    p_solve.add_argument("--gamma-d", type=float, required=True)
    p_solve.add_argument("--no-coulomb", action="store_true",
                         help="switch the Coulomb term off (closed-form check)")
    common(p_solve)

    p_table = sub.add_parser("table", help="reproduce a golden table")
    p_table.add_argument("id", type=int, choices=tables.TABLE_IDS)
    p_table.add_argument("--tolerance", type=float, default=1e-3)
    common(p_table)

    p_fig = sub.add_parser("figure", help="emit the data behind a figure")
    p_fig.add_argument("id", type=int, choices=tables.FIGURE_IDS)
    p_fig.add_argument("--gamma", type=str, default=None, metavar="LO:HI:STEP")
    p_fig.add_argument("--Gamma", type=str, default=None, metavar="LO:HI:STEP",
                       help="combined-confinement grid (figure 5)")
    common(p_fig)

    p_scan = sub.add_parser("scan", help="scan states over a field grid")
    p_scan.add_argument("--system", choices=("ion", "two_electron"), required=True)
    p_scan.add_argument("--states", type=str, required=True,
                        help="semicolon list: 'k,m' or 'k,m,K,M' tuples")
    p_scan.add_argument("--gamma", type=str, required=True, metavar="LO:HI:STEP")
    p_scan.add_argument("--gamma-d", type=float, required=True)
    p_scan.add_argument("--no-interaction", action="store_true",
                        help="use the closed interaction-free forms")
    common(p_scan)
    return parser


def _write(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, newline="")


def _solver_opts(args) -> dict:
    """The --order, --pade and --precision settings as record keyword arguments."""
    return {"order": args.order, "pade": tuple(args.pade), "precision": args.precision}


def _cmd_solve(args) -> int:
    d = DotParams(gamma=args.gamma, gamma_d=args.gamma_d)
    coulomb = not args.no_coulomb
    if args.system == "ion":
        st = StateLabel(args.k, args.m)
        rec = ion_record(d, st, coulomb=coulomb, **_solver_opts(args))
        oracle_system = "ion"
    else:
        lvl = TwoElectronLevel(rm=StateLabel(args.k, args.m), cm_k=args.K, cm_m=args.M)
        rec = two_electron_record(d, lvl, coulomb=coulomb, **_solver_opts(args))
        oracle_system = "two_electron_rm"
    line = (
        f"{rec.label} energy={rec.energy:.6f} leading_fraction={rec.leading_fraction:.6f} "
        f"pade_spread={rec.pade_spread:.3e}"
    )
    if args.oracle and coulomb:
        delta = cross_check(StateLabel(args.k, args.m), d, oracle_system)
        line += f" oracle_delta={delta:.6f}"
    line += f" converged={'yes' if rec.converged else 'no'}"
    print(line)
    return EXIT_OK if rec.converged else EXIT_TOLERANCE


def _cmd_table(args) -> int:
    report = tables.compute_table(
        args.id,
        tolerance=args.tolerance,
        oracle=args.oracle,
        **_solver_opts(args),
    )
    sep = "\t" if args.format == "tsv" else ","
    out = args.output or Path(f"table{args.id}.{args.format}")
    _write(out, tables.table_csv(report, sep=sep))
    sys.stdout.write(tables.diff_report(report))
    if report.failures:
        return EXIT_TOLERANCE
    return EXIT_OK if report.max_delta <= args.tolerance else EXIT_TOLERANCE


def _cmd_figure(args) -> int:
    grid = None
    if args.id == 5 and args.Gamma:
        grid = tables.parse_grid(args.Gamma)
    elif args.gamma:
        grid = tables.parse_grid(args.gamma)
    records, crossings = tables.figure_curves(
        args.id, grid=grid, jobs=args.jobs, oracle=args.oracle, **_solver_opts(args)
    )
    sep = "\t" if args.format == "tsv" else ","
    out = args.output or Path(f"figure{args.id}.{args.format}")
    _write(out, tables.records_csv(records, oracle=args.oracle, sep=sep))
    sidecar = out.with_name(out.stem + ".crossings" + out.suffix)
    _write(sidecar, tables.crossings_csv(crossings, sep=sep))
    n_fail = sum(1 for r in records if r.error is not None)
    print(f"figure {args.id}: {len(records)} rows -> {out}, {len(crossings)} crossings -> {sidecar}")
    if n_fail:
        print(f"  {n_fail} points failed to solve")
        return EXIT_TOLERANCE
    return EXIT_OK


def _parse_states(spec: str, system: str):
    out = []
    for chunk in spec.split(";"):
        parts = [int(p) for p in chunk.split(",")]
        if system == "ion":
            if len(parts) != 2:
                raise ValueError(f"ion states need 'k,m', got {chunk!r}")
            out.append(StateLabel(*parts))
        else:
            if len(parts) == 2:
                parts += [0, 0]
            if len(parts) != 4:
                raise ValueError(f"two-electron states need 'k,m,K,M', got {chunk!r}")
            out.append(TwoElectronLevel(rm=StateLabel(parts[0], parts[1]),
                                        cm_k=parts[2], cm_m=parts[3]))
    return out


def _cmd_scan(args) -> int:
    from functools import partial

    from .quantum_dot import spectrum_record

    states = _parse_states(args.states, args.system)
    pts = tables._grid_points(tables.parse_grid(args.gamma))
    d0 = DotParams(gamma=pts[0], gamma_d=args.gamma_d)
    evaluator = partial(
        spectrum_record,
        interaction=not args.no_interaction,
        oracle=args.oracle,
        **_solver_opts(args),
    )
    records, crossings = scan_spectrum(states, d0, pts, evaluator=evaluator, jobs=args.jobs)
    sep = "\t" if args.format == "tsv" else ","
    out = args.output or Path(f"scan.{args.format}")
    _write(out, tables.records_csv(records, oracle=args.oracle, sep=sep))
    sidecar = out.with_name(out.stem + ".crossings" + out.suffix)
    _write(sidecar, tables.crossings_csv(crossings, sep=sep))
    print(f"scan: {len(records)} rows -> {out}, {len(crossings)} crossings -> {sidecar}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "scan":
            return _cmd_scan(args)
        parser.error(f"unknown command {args.command!r}")
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PsletError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
