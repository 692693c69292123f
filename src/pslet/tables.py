"""Reproduction of the golden tables and figure data sets.

Golden values ship as CSV resources under pslet/data with provenance notes
in their comment headers.  They are also the state lists: figure 1 plots
the states of table 1, figure 5 those of tables 2-3, figures 6-7 the levels
of table 5, and golden_states(4) gives the tagged levels of table 4, each
in the order of first appearance.  Table reproduction computes every cell,
compares against the golden file, and reports the worst absolute
deviation; figure commands emit the underlying curves of the published
plots as CSV rows plus a sidecar listing detected level crossings.  Table
cells and figure points follow quantum_dot's row rule, spectrum_row, and
each is solved in the one configuration of engine.solve_state: the
paper's [9/10] resummation of the order-19 series.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

from .quantum_dot import (
    DotParams,
    SpectrumRecord,
    StateLabel,
    TwoElectronLevel,
    cm_energy,
    ion_free_energy,
    oracle_delta,
    scan_spectrum,
    spectrum_record,
    spectrum_row,
    two_electron_record,
)

TABLE_IDS = (1, 2, 3, 4, 5)
FIGURE_IDS = (1, 2, 3, 4, 5, 6, 7)

# gamma_d of table 1 and table 5, and of the field scans of figures 1-4 and 6-7
_GAMMA_D = 0.2


def radial_name(k: int, m: int) -> str:
    """Sign-free spectroscopic name used for the interaction-energy tables."""
    return StateLabel(k, abs(m)).name.rstrip("+")


def load_golden(table_id: int) -> list[dict]:
    """Rows of the embedded golden CSV for one table (comments stripped)."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"table id must be one of {TABLE_IDS}")
    text = resources.files("pslet.data").joinpath(f"table{table_id}.csv").read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _row_state(row: dict):
    """The state of one golden row: a StateLabel, or (tag, level) in tables 4-5."""
    st = StateLabel(int(row["k"]), int(row["m"]))
    if "K" not in row:
        return st
    return row["tag"], TwoElectronLevel(rm=st, cm_k=int(row["K"]), cm_m=int(row["M"]))


def golden_states(table_id: int) -> list:
    """The distinct states of one golden table, in the order they first appear."""
    return list(dict.fromkeys(_row_state(row) for row in load_golden(table_id)))


@dataclass(frozen=True)
class Cell(SpectrumRecord):
    """One computed table cell next to its golden value."""

    reference: float = math.nan

    @property
    def value(self) -> float:
        return self.energy

    @property
    def delta(self) -> float:
        return abs(self.value - self.reference)


@dataclass(frozen=True)
class TableReport:
    """All cells of one reproduced table plus the summary verdict."""

    table_id: int
    cells: list
    tolerance: float

    @property
    def max_delta(self) -> float:
        finite = [c.delta for c in self.cells if math.isfinite(c.delta)]
        return max(finite) if finite else math.inf

    @property
    def failures(self) -> list:
        return [c for c in self.cells if c.error is not None or not math.isfinite(c.value)]

    @property
    def flagged(self) -> list:
        return [c for c in self.cells if not c.converged]

    @property
    def passed(self) -> bool:
        return not self.failures and self.max_delta <= self.tolerance


def _row_params(row: dict) -> DotParams:
    """The dot of one golden row: its gamma (else 0) and its gamma_d or Gamma (else 0.2)."""
    gamma_d = row.get("gamma_d", row.get("Gamma", _GAMMA_D))
    return DotParams(gamma=float(row.get("gamma", 0.0)), gamma_d=float(gamma_d))


def compute_table(
    table_id: int,
    tolerance: float = 1e-3,
    oracle: bool = False,
) -> TableReport:
    """Compute every cell of one golden table and diff against the reference.

    Repeated radial problems (a state at +m and -m, a relative-motion state
    under several center-of-mass states) are solved once, by the radial memo
    of quantum_dot.  A cell whose solve or oracle cross-check fails is a
    failed cell, and the report does not pass.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    cells = []
    for row in load_golden(table_id):
        state, d = _row_state(row), _row_params(row)
        if table_id in (2, 3):
            rec = _pair_row(state, d, oracle)
        else:
            label = None
            if table_id in (4, 5):
                tag, state = state
                label = f"{tag}:{state.name}"
            rec = spectrum_row(state, d, oracle=oracle, label=label)
        cells.append(Cell(**vars(rec), reference=float(row["energy"])))
    return TableReport(table_id=table_id, cells=cells, tolerance=tolerance)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

# figure 1 plots the states of table 1; figures 2-4 plot subsets of them
_FIG_ION_STATES = {
    2: [(0, 0), (0, -1), (0, -2), (0, -3)],
    3: [(1, 0), (0, 2), (0, 3), (1, -1), (0, 1), (1, -2)],
    4: [(2, 0), (1, 1), (2, -1), (2, -2), (2, -3)],
}

DEFAULT_GAMMA_GRID = (0.0, 0.4, 0.01)
DEFAULT_GAMMA_EFF_GRID = (0.05, 5.0, 0.05)


def parse_grid(spec: str) -> tuple[float, float, float]:
    """Parse a lo:hi:step range specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {spec!r}")
    return _checked_grid(tuple(float(p) for p in parts), spec)


def _checked_grid(grid: tuple[float, float, float], shown) -> tuple[float, float, float]:
    """The one grid rule: lo, hi and step finite, step > 0, hi >= lo, at most 1e6 steps."""
    lo, hi, step = grid
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"bad grid {shown!r}: lo, hi and step must be finite")
    if step <= 0.0 or hi < lo:
        raise ValueError(f"bad grid {shown!r}: need hi >= lo and step > 0")
    # hi - lo and the quotient can overflow to inf, which fails the test too
    if not (hi - lo) / step <= 1e6:
        raise ValueError(f"bad grid {shown!r}: (hi - lo)/step must be at most 1e6")
    return lo, hi, step


def _grid_points(grid: tuple[float, float, float]) -> list[float]:
    lo, hi, step = _checked_grid(grid, grid)
    n = int(round((hi - lo) / step))
    pts = [lo + i * step for i in range(n + 1)]
    if pts[-1] > hi + 1e-12:
        pts.pop()
    return pts


def _pair_interaction_record(state: StateLabel, d: DotParams) -> SpectrumRecord:
    """The two-electron record less its exact center-of-mass and free parts."""
    rec = two_electron_record(d, TwoElectronLevel(rm=state, cm_k=0, cm_m=0))
    return replace(rec, energy=rec.energy - cm_energy(d, 0, 0) - ion_free_energy(d, state))


def _pair_oracle_delta(state: StateLabel, d: DotParams, energy: float) -> float:
    """oracle_delta of a pair interaction energy, its exact parts added back."""
    level = TwoElectronLevel(rm=state, cm_k=0, cm_m=0)
    return oracle_delta(level, d, energy + cm_energy(d, 0, 0) + ion_free_energy(d, state))


def _pair_row(state: StateLabel, d: DotParams, oracle: bool) -> SpectrumRecord:
    """The pair interaction energy row of tables 2-3 and figure 5."""
    return spectrum_row(
        state, d, _pair_interaction_record, oracle,
        delta=_pair_oracle_delta, label=radial_name(state.k, state.m),
    )


def figure_curves(
    fig_id: int,
    grid=None,
    jobs: int = 1,
    oracle: bool = False,
):
    """Curves behind one published figure: (records, crossings).

    Figures 1-4 scan the impurity-electron states over gamma at gamma_d = 0.2
    (figure 1 without the impurity interaction); figure 5 scans the pair
    interaction energy over the combined confinement; figures 6 and 7 scan
    the two-electron levels of table 5 without and with the pair interaction.
    With oracle set, every interacting point also carries its
    finite-difference cross-check delta; figures 1 and 6 have none, so
    oracle is a usage error there.  jobs workers share each field scan;
    figure 5 runs serially.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if fig_id == 5:  # serial: jobs does not apply
        pts = _grid_points(grid or DEFAULT_GAMMA_EFF_GRID)
        records = [
            _pair_row(st, DotParams(gamma=0.0, gamma_d=g_eff), oracle)
            for st in golden_states(2)
            for g_eff in pts
        ]
        return records, []
    pts = _grid_points(grid or DEFAULT_GAMMA_GRID)
    if fig_id == 1:
        states, interaction = golden_states(1), False
    elif fig_id in (2, 3, 4):
        states, interaction = [StateLabel(k, m) for k, m in _FIG_ION_STATES[fig_id]], True
    else:
        states, interaction = [lvl for _, lvl in golden_states(5)], fig_id == 7
    d0 = DotParams(gamma=pts[0], gamma_d=_GAMMA_D)
    return scan_levels(states, d0, pts, interaction, jobs=jobs, oracle=oracle)


def scan_levels(states, d0: DotParams, pts, interaction: bool, jobs: int = 1,
                oracle: bool = False):
    """scan_spectrum over spectrum records: (records, crossings).

    The oracle delta is only defined with the interaction on, so oracle
    without it is a usage error.
    """
    if oracle and not interaction:
        raise ValueError("--oracle needs the interaction")
    evaluator = partial(spectrum_record, interaction=interaction)
    return scan_spectrum(states, d0, pts, evaluator=evaluator, jobs=jobs, oracle=oracle)


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6f}" if math.isfinite(x) else "nan"


def _sci(otherwise: str):
    return lambda x: f"{x:.3e}" if math.isfinite(x) else otherwise


# CSV column -> formatter, for every CSV written here.  Column Gamma holds
# the row's gamma_eff, every other column the attribute of its own name.
_COLUMNS = {
    "label": str, "state_a": str, "state_b": str,
    "gamma": _fmt, "gamma_d": _fmt, "Gamma": _fmt, "energy": _fmt, "reference": _fmt,
    "leading_fraction": _fmt, "gamma_lo": _fmt, "gamma_hi": _fmt,
    "delta": _sci("nan"),
    "pade_spread": _sci("inf"),
    "converged": lambda b: "1" if b else "0",
    "oracle_delta": lambda x: "" if x is None else _fmt(x),
}

_RECORD_COLUMNS = ("label", "gamma", "gamma_d", "Gamma", "energy", "leading_fraction",
                   "pade_spread")
_CELL_COLUMNS = ("label", "gamma", "gamma_d", "Gamma", "energy", "reference", "delta",
                 "leading_fraction", "pade_spread", "converged")
_CROSSING_COLUMNS = ("state_a", "state_b", "gamma_lo", "gamma_hi")


def _csv(rows, columns, sep: str) -> str:
    """A header line of the column names, then one line per row, joined by sep."""
    cells = [("gamma_eff" if name == "Gamma" else name, _COLUMNS[name]) for name in columns]
    lines = [sep.join(columns)]
    lines += [sep.join(fmt(getattr(row, attr)) for attr, fmt in cells) for row in rows]
    return "\n".join(lines) + "\n"


def records_csv(records, oracle: bool = False, sep: str = ",") -> str:
    """Deterministic CSV for spectrum records (6-decimal fixed format)."""
    return _csv(records, _RECORD_COLUMNS + (("oracle_delta",) if oracle else ()), sep)


def crossings_csv(crossings, sep: str = ",") -> str:
    return _csv(crossings, _CROSSING_COLUMNS, sep)


def table_csv(report: TableReport, sep: str = ",") -> str:
    """One row per cell: computed value, golden reference and their gap."""
    with_oracle = any(c.oracle_delta is not None for c in report.cells)
    return _csv(report.cells, _CELL_COLUMNS + (("oracle_delta",) if with_oracle else ()), sep)


def diff_report(report: TableReport) -> str:
    """Human-readable summary of a table reproduction."""
    lines = [
        f"table {report.table_id}: {len(report.cells)} cells, "
        f"max |delta| = {report.max_delta:.2e} (tolerance {report.tolerance:.0e})"
    ]
    for c in report.failures:
        lines.append(f"  FAILED {c.label} at gamma={c.gamma:g}: {c.error}")
    for c in report.flagged:
        lines.append(
            f"  flagged not-converged: {c.label} at gamma={c.gamma:g}, gamma_d={c.gamma_d:g} "
            f"(ladder spread {c.pade_spread:.2e}); delta vs reference {c.delta:.2e}"
        )
    worst = max(
        (c for c in report.cells if math.isfinite(c.delta)),
        key=lambda c: c.delta,
        default=None,
    )
    if worst is not None:
        lines.append(
            f"  worst cell: {worst.label} at gamma={worst.gamma:g}, gamma_d={worst.gamma_d:g}: "
            f"{worst.value:.6f} vs {worst.reference:.4f}"
        )
    lines.append("  PASS" if report.passed else "  FAIL")
    return "\n".join(lines) + "\n"
