"""Command-line front end: single solves, golden tables, figure data, scans.

Every command solves in engine.solve_state's one configuration: order 19,
the top [9/10] member of the Pade ladder, and double-double arithmetic only
where the double ladder does not converge.  No flag changes it.

Exit codes: 0 success, 1 usage error, 2 solver error, 3 tolerance or
convergence failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tables
from .errors import PsletError
from .quantum_dot import (
    DotParams,
    StateLabel,
    TwoElectronLevel,
    ion_record,
    oracle_delta,
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

    def common(p, files=True, jobs=True):
        """--oracle, plus the output-file flags and --jobs where they are read."""
        p.add_argument("--oracle", action="store_true",
                       help="append the finite-difference cross-check delta")
        if files:
            p.add_argument("--output", type=Path, default=None, help="output file path")
            p.add_argument("--format", choices=("csv", "tsv"), default="csv")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_solve = sub.add_parser("solve", help="solve a single state")
    p_solve.add_argument("--system", choices=("ion", "two_electron"), required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--K", type=int, default=None,
                         help="center-of-mass radial index (two_electron only; default 0)")
    p_solve.add_argument("--M", type=int, default=None,
                         help="center-of-mass azimuthal index (two_electron only; default 0)")
    p_solve.add_argument("--gamma", type=float, required=True)
    p_solve.add_argument("--gamma-d", type=float, required=True)
    p_solve.add_argument("--no-coulomb", action="store_true",
                         help="use the closed interaction-free forms")
    common(p_solve, files=False, jobs=False)

    p_table = sub.add_parser("table", help="reproduce a golden table")
    p_table.add_argument("id", type=int, choices=tables.TABLE_IDS)
    p_table.add_argument("--tolerance", type=float, default=1e-3)
    common(p_table, jobs=False)

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


def _cmd_solve(args) -> int:
    d = DotParams(gamma=args.gamma, gamma_d=args.gamma_d)
    interaction = not args.no_coulomb
    if args.oracle and not interaction:
        raise ValueError("--oracle needs the interaction")
    if args.system == "ion":
        if args.K is not None or args.M is not None:
            raise ValueError("--K and --M index the two-electron center of mass, not the ion")
        state = StateLabel(args.k, args.m)
        rec = ion_record(d, state, interaction=interaction)
    else:
        state = TwoElectronLevel(rm=StateLabel(args.k, args.m), cm_k=args.K or 0, cm_m=args.M or 0)
        rec = two_electron_record(d, state, interaction=interaction)
    line = (
        f"{rec.label} energy={rec.energy:.6f} leading_fraction={rec.leading_fraction:.6f} "
        f"pade_spread={rec.pade_spread:.3e}"
    )
    if args.oracle:
        line += f" oracle_delta={oracle_delta(state, d, rec.energy):.6f}"
    line += f" converged={'yes' if rec.converged else 'no'}"
    print(line)
    return EXIT_OK if rec.converged else EXIT_TOLERANCE


def _cmd_table(args) -> int:
    report = tables.compute_table(
        args.id,
        tolerance=args.tolerance,
        oracle=args.oracle,
    )
    sep = "\t" if args.format == "tsv" else ","
    out = args.output or Path(f"table{args.id}.{args.format}")
    _write(out, tables.table_csv(report, sep=sep))
    sys.stdout.write(tables.diff_report(report))
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _write_curves(args, stem: str, what: str, records, crossings) -> int:
    """Write scan or figure records and their crossings sidecar; exit 3 on failed points."""
    sep = "\t" if args.format == "tsv" else ","
    out = args.output or Path(f"{stem}.{args.format}")
    _write(out, tables.records_csv(records, oracle=args.oracle, sep=sep))
    sidecar = out.with_name(out.stem + ".crossings" + out.suffix)
    _write(sidecar, tables.crossings_csv(crossings, sep=sep))
    print(f"{what}: {len(records)} rows -> {out}, {len(crossings)} crossings -> {sidecar}")
    n_fail = sum(1 for r in records if r.error is not None)
    if n_fail:
        print(f"  {n_fail} points failed to solve")
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_figure(args) -> int:
    # figure 5 scans the combined confinement, every other figure the field
    read, unread = ("Gamma", "gamma") if args.id == 5 else ("gamma", "Gamma")
    if getattr(args, unread) is not None:
        raise ValueError(f"figure {args.id} takes --{read}, not --{unread}")
    spec = getattr(args, read)
    grid = None if spec is None else tables.parse_grid(spec)
    records, crossings = tables.figure_curves(
        args.id, grid=grid, jobs=args.jobs, oracle=args.oracle
    )
    return _write_curves(args, f"figure{args.id}", f"figure {args.id}", records, crossings)


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
    states = _parse_states(args.states, args.system)
    pts = tables._grid_points(tables.parse_grid(args.gamma))
    d0 = DotParams(gamma=pts[0], gamma_d=args.gamma_d)
    records, crossings = tables.scan_levels(
        states, d0, pts, not args.no_interaction, jobs=args.jobs, oracle=args.oracle,
    )
    return _write_curves(args, "scan", "scan", records, crossings)


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
