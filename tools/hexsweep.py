"""Bit-level fingerprints of a fixed sweep of radial solves, or of the figures.

Each solve is reduced to one SHA-256 over the float.hex of everything the
engine computes for it: the resummed energy, the corrections E^(0)..E^(n),
every Pade ladder value, and, on the double path, every coefficient of the
W and F tables of the correction hierarchy.  The extended path reads its
corrections from the compiled table and has no W and F, so its digest
covers the energy, the ladder and the corrections alone.  float.hex keeps the sign of zero, so two builds give
equal digests only when they agree bit for bit.  Beside the digest each
line carries the values a move is judged by, as name=value fields: the
energy and the ladder spread (float.hex, engine units), converged, and
every ladder value (float.hex, or None where the member failed).

The sweep is 360 solves: both systems, Gamma 0.05, 0.2, 0.7, 2 and 5,
k 0-5, |m| 0, 1 and 3, each run on both arithmetic paths of the engine,
"double" and "extended", whichever one solve_state would take; each key
ends in its path's name.  A solve comes from engine._double or
engine._extended, the path functions solve_state runs, and the W and F
tables from _double, as wavefunction_eval reads them.  From k = 4 on
a prefactor (F_0 at k = 4, every F_i from k = 5) has three or more
nonzero coefficients, so its products take three or more rows each.

With --figures the file instead holds one line per row and per crossing of
figures 1-7 on their default grids: the float.hex of the row's energy,
leading_fraction and pade_spread, and of the crossing's gamma_lo and
gamma_hi.  The CSVs print six decimals, so they cannot show bit identity.
A row carries its energy, spread and converged as fields too, the energy
and the spread both in Ry*, as the record holds them.

With --origins the file holds one line per state of a wider sweep of the
expansion origin alone: the float.hex of q0, omega, beta and lbar from
locate_q0 and shift_params.  That sweep is 1,080 states: the ion and
relative-motion potentials and the pure oscillator (c = 0), 12 values of
Gamma log-spaced over 0.01-20, k 0-4 and |m| 0-5.

    PYTHONPATH=src python tools/hexsweep.py sweep.txt
    PYTHONPATH=src python tools/hexsweep.py --figures figures.txt
    PYTHONPATH=src python tools/hexsweep.py --origins origins.txt
    python tools/hexsweep.py --compare parent.txt change.txt
    python tools/hexsweep.py --compare parent.txt change.txt --moves

--compare lists the entries that differ or that only one file has, and
exits 1 if there are any.  Run one of the first three forms on two
checkouts to list the values a change moves.  With --moves it prints, for
each entry that differs, |dE| (in engine units for a solve, in Ry* for a
figure row), |dE| over the ladder spread of each side (in the same units),
and any flip of converged; a summary line names the largest move.  It
exits 1 when a move exceeds the larger of the two spreads, or when an
entry that differs carries no energy and spread to judge it by (a
crossing, an origin, an error, an entry only one file has).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

SYSTEMS = ("ion", "rm")
GAMMAS = (0.05, 0.2, 0.7, 2.0, 5.0)
KS = range(6)
MS = (0, 1, 3)
PATHS = ("double", "extended")

ORIGIN_SYSTEMS = ("ion", "rm", "oscillator")
ORIGIN_GAMMAS = tuple(0.01 * (2000.0 ** (i / 11)) for i in range(12))
ORIGIN_KS = range(5)
ORIGIN_MS = range(6)

# the name=value fields that may follow a line's digest or hex list
FIELDS = ("energy", "spread", "converged", "ladder")


def solve_hexes(res, W, F) -> list[str]:
    """float.hex of every number of one SolveResult and its W and F tables, in a fixed order."""
    out = [float(res.energy).hex()]
    out += [float(c).hex() for c in res.expansion.corrections]
    out += ["None" if v is None else float(v).hex() for v in res.staircase.values]
    for poly in W + F:
        out += [float(c).hex() for c in poly]
    return out


def solve_digest(res, W, F) -> str:
    return hashlib.sha256("\n".join(solve_hexes(res, W, F)).encode()).hexdigest()


def value_fields(energy: float, spread: float, converged: bool, ladder=None) -> str:
    """The name=value fields --moves reads: float.hex, and None for a failed member."""
    out = f" energy={float(energy).hex()} spread={float(spread).hex()} converged={converged}"
    if ladder is not None:
        out += " ladder=" + ",".join("None" if v is None else float(v).hex() for v in ladder)
    return out


def solve(system: str, gamma: float, k: int, m: int, path: str):
    """(SolveResult, W, F) of one radial solve on the path "double" or "extended".

    The potential is the one quantum_dot maps (system, Gamma) to, and the
    path runs from locate_q0's origin.  W and F are empty lists on the
    extended path, which has no hierarchy tables.
    """
    from pslet import StateIndex
    from pslet.engine import _double, _extended, locate_q0
    from pslet.quantum_dot import radial_potential

    p, s = radial_potential(system, gamma), StateIndex.from_azimuthal(k, m)
    q0 = locate_q0(p, s)
    return _double(p, s, q0) if path == "double" else (_extended(p, s, q0), [], [])


def sweep_lines():
    from pslet.errors import PsletError

    for system, gamma, k, m, path in itertools.product(SYSTEMS, GAMMAS, KS, MS, PATHS):
        key = f"{system} G={gamma!r} k={k} m={m} {path}"
        try:
            res, W, F = solve(system, gamma, k, m, path)
            stair = res.staircase
            fields = value_fields(res.energy, stair.spread, stair.converged, stair.values)
            yield f"{key} {solve_digest(res, W, F)}{fields}"
        except PsletError as err:  # a failed solve is a fingerprint too
            yield f"{key} error:{type(err).__name__}"


def figure_row_line(fig_id: int, i: int, r) -> str:
    """The line of row i of figure fig_id; the record's energy and spread are in Ry*."""
    values = ",".join(float(v).hex() for v in (r.energy, r.leading_fraction, r.pade_spread))
    fields = value_fields(r.energy, r.pade_spread, r.converged)
    return f"figure {fig_id} row {i} {r.label} {values}{fields}"


def figure_lines():
    from pslet import tables

    for fig_id in tables.FIGURE_IDS:
        records, crossings = tables.figure_curves(fig_id)
        for i, r in enumerate(records):
            yield figure_row_line(fig_id, i, r)
        seen = {}
        for c in crossings:
            pair = (c.state_a, c.state_b)
            n = seen[pair] = seen.get(pair, -1) + 1
            key = f"figure {fig_id} crossing {c.state_a} x {c.state_b} #{n}"
            yield f"{key} {c.gamma_lo.hex()},{c.gamma_hi.hex()}"


def origin_lines():
    from pslet import StateIndex
    from pslet.engine import locate_q0, shift_params
    from pslet.errors import PsletError
    from pslet.quantum_dot import radial_potential

    states = itertools.product(ORIGIN_SYSTEMS, ORIGIN_GAMMAS, ORIGIN_KS, ORIGIN_MS)
    for system, gamma, k, m in states:
        key = f"origin {system} G={gamma!r} k={k} m={m}"
        if system == "oscillator":  # the ion's oscillator without its Coulomb core
            pot = replace(radial_potential("ion", gamma), c_coul=0.0)
        else:
            pot = radial_potential(system, gamma)
        s = StateIndex.from_azimuthal(k, m)
        try:
            sp = shift_params(pot, locate_q0(pot, s), s)
        except PsletError as err:
            yield f"{key} error:{type(err).__name__}"
            continue
        yield f"{key} " + ",".join(float(v).hex() for v in (sp.q0, sp.omega, sp.beta, sp.lbar))


def _read(path: Path) -> dict[str, tuple[str, dict]]:
    """{key: (everything after the key, {field name: value})} of one fingerprint file."""
    rows = {}
    for line in path.read_text().splitlines():
        tokens = line.split(" ")
        fields = {}
        while len(tokens) > 1 and tokens[-1].partition("=")[0] in FIELDS:
            name, _, value = tokens.pop().partition("=")
            fields[name] = value
        key = " ".join(tokens[:-1])
        rows[key] = (line[len(key) + 1:], fields)
    return rows


def _move(fa: dict, fb: dict):
    """(|dE|, |dE|/spread on each side, flip) of one entry, or None with nothing to judge."""
    try:
        ea, eb = float.fromhex(fa["energy"]), float.fromhex(fb["energy"])
        sa, sb = float.fromhex(fa["spread"]), float.fromhex(fb["spread"])
    except KeyError:
        return None
    de = abs(ea - eb)
    if not math.isfinite(de):
        return None
    ratios = tuple(de / s if s > 0.0 else (0.0 if de == 0.0 else math.inf) for s in (sa, sb))
    flip = fa.get("converged") != fb.get("converged")
    return de, ratios, max(sa, sb), flip


def compare(a: Path, b: Path, moves: bool = False) -> int:
    ra, rb = _read(a), _read(b)
    differ = [key for key in ra if ra[key][0] != rb.get(key, (None,))[0]]
    differ += [key for key in rb if key not in ra]
    largest, failed = None, 0
    for key in differ:
        where = "" if key in ra and key in rb else f" (only in {a if key in ra else b})"
        move = _move(ra[key][1], rb[key][1]) if moves and not where else None
        if move is None:
            print(f"differs: {key}{where or (' (no energy and spread to judge)' if moves else '')}")
            failed += 1
            continue
        de, (ratio_a, ratio_b), spread, flip = move
        flipped = (f", converged {ra[key][1]['converged']} -> {rb[key][1]['converged']}"
                   if flip else "")
        print(f"moved: {key} |dE| {de:.3e}, {ratio_a:.3g} / {ratio_b:.3g} of the spread{flipped}")
        failed += de > spread
        if largest is None or de > largest[0]:
            largest = (de, spread, key)
    summary = f"{len(differ)} of {len(ra.keys() | rb.keys())} entries differ"
    if moves:
        if largest is not None:
            de, spread, key = largest
            summary += f"; largest move |dE| {de:.3e} (larger spread {spread:.3e}) at {key}"
        summary += f"; {failed} past their spread or unjudged"
    print(summary)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="write one digest line per solve here")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--figures", action="store_true",
                      help="fingerprint the rows and crossings of figures 1-7 instead")
    what.add_argument("--origins", action="store_true",
                      help="fingerprint the expansion origin of a 1,080-state sweep instead")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="list the entries that differ between two fingerprint files")
    parser.add_argument("--moves", action="store_true",
                        help="with --compare, judge each entry's energy move by its spread")
    args = parser.parse_args(argv)
    if args.moves and not args.compare:
        parser.error("--moves needs --compare A B")
    if args.compare:
        return compare(*args.compare, moves=args.moves)
    if args.out is None:
        parser.error("give an output file or --compare A B")
    lines = figure_lines() if args.figures else origin_lines() if args.origins else sweep_lines()
    args.out.write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
