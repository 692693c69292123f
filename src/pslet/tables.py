"""Reproduction of the golden tables and figure data sets.

Golden values ship as CSV resources under pslet/data with provenance notes
in their comment headers.  Table reproduction computes every cell, compares
against the golden file, and reports the worst absolute deviation; figure
commands emit the underlying curves of the published plots as CSV rows plus
a sidecar listing detected level crossings.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

from .engine import DEFAULT_ORDER, DEFAULT_PADE
from .errors import PsletError
from .quantum_dot import (
    DotParams,
    SpectrumRecord,
    StateLabel,
    TwoElectronLevel,
    cm_energy,
    failed_record,
    ion_record,
    oracle_delta,
    rm_free_energy,
    scan_spectrum,
    spectrum_record,
    two_electron_record,
)

TABLE_IDS = (1, 2, 3, 4, 5)
FIGURE_IDS = (1, 2, 3, 4, 5, 6, 7)

# table 1 block A carries gamma 0..0.4, block B 0..0.2
_T1_BLOCK_A = [(0, 0), (0, -1), (0, -2), (0, -3), (0, 1), (0, 2), (0, 3), (1, 0), (1, -1), (1, -2)]
_T1_BLOCK_B = [(1, 1), (2, 0), (2, -1), (2, -2), (2, -3)]
_T1_GAMMAS_A = (0.0, 0.1, 0.2, 0.3, 0.4)
_T1_GAMMAS_B = (0.0, 0.05, 0.1, 0.15, 0.2)
_T1_GAMMA_D = 0.2

_T23_STATES = [
    (0, 0), (1, 0), (2, 0), (3, 0),
    (0, 1), (1, 1), (2, 1),
    (0, 2), (1, 2), (2, 2),
    (0, 3), (0, 4),
]
_T2_GAMMAS = (0.05, 0.1, 0.2, 0.4)
_T3_GAMMAS = (1.0, 2.5, 4.0, 5.0)

_T4_LEVELS = [
    ("a", 0, 0, 0, 0), ("b", 0, 1, 0, 0), ("c", 0, 0, 0, 1), ("d", 0, 2, 0, 0),
    ("e", 0, 1, 0, 1), ("f", 1, 0, 0, 0), ("g", 0, 0, 1, 0), ("h", 0, 3, 0, 0),
    ("i", 0, 2, 0, 1), ("j", 1, 1, 0, 0), ("k", 0, 1, 1, 0), ("l", 1, 0, 0, 1),
    ("m", 0, 0, 1, 1), ("n", 0, 4, 0, 0), ("o", 1, 2, 0, 0), ("p", 0, 2, 1, 0),
]
_T4_GAMMA_DS = (1.0, 0.4, 0.2, 0.05)

_T5_LEVELS = [
    ("A", 0, 0, 0, 0), ("B", 0, -1, 0, 0), ("C", 0, 0, 0, -1), ("D", 0, -2, 0, 0),
    ("E", 0, -1, 0, -1), ("F", 0, -3, 0, 0), ("G", 1, 0, 0, 0), ("H", 1, -1, 0, 0),
    ("I", 1, 0, 0, -1), ("J", 1, -2, 0, 0), ("K", 1, -1, 0, -1),
]
_T5_GAMMAS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
_T5_GAMMA_D = 0.2


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


@dataclass(frozen=True)
class Cell:
    """One computed table cell next to its golden value."""

    label: str
    gamma: float
    gamma_d: float
    gamma_eff: float
    value: float
    reference: float
    leading_fraction: float
    pade_spread: float
    converged: bool
    oracle_delta: float | None = None
    error: str | None = None

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


def _safe(fn, label: str, d: DotParams, reference: float) -> Cell:
    try:
        rec = fn()
        return Cell(
            label=label,
            gamma=d.gamma,
            gamma_d=d.gamma_d,
            gamma_eff=d.gamma_eff,
            value=rec.energy,
            reference=reference,
            leading_fraction=rec.leading_fraction,
            pade_spread=rec.pade_spread,
            converged=rec.converged,
        )
    except PsletError as err:
        return Cell(
            label=label,
            gamma=d.gamma,
            gamma_d=d.gamma_d,
            gamma_eff=d.gamma_eff,
            value=math.nan,
            reference=reference,
            leading_fraction=math.nan,
            pade_spread=math.inf,
            converged=False,
            error=str(err),
        )


def compute_table(
    table_id: int,
    tolerance: float = 1e-3,
    order: int = DEFAULT_ORDER,
    pade: tuple[int, int] = DEFAULT_PADE,
    precision: str = "auto",
    oracle: bool = False,
) -> TableReport:
    """Compute every cell of one golden table and diff against the reference.

    Repeated radial problems (a state at +m and -m, a relative-motion state
    under several center-of-mass states) are solved once, by the radial memo
    of quantum_dot.
    """
    opts = {"order": order, "pade": pade, "precision": precision}
    cells = []
    for row in load_golden(table_id):
        st = StateLabel(int(row["k"]), int(row["m"]))
        if table_id == 1:
            d = DotParams(gamma=float(row["gamma"]), gamma_d=_T1_GAMMA_D)
            label, fn = st.name, partial(ion_record, d, st, **opts)
            delta = partial(oracle_delta, st, d)
        elif table_id in (2, 3):
            d = DotParams(gamma=0.0, gamma_d=float(row["Gamma"]))
            label, fn = radial_name(st.k, st.m), partial(_pair_interaction_record, st, d, **opts)
            delta = partial(_pair_oracle_delta, st, d)
        else:
            K, M = int(row["K"]), int(row["M"])
            if table_id == 4:
                d = DotParams(gamma=0.0, gamma_d=float(row["gamma_d"]))
            else:
                d = DotParams(gamma=float(row["gamma"]), gamma_d=_T5_GAMMA_D)
            label = f"{row['tag']}:({st.k},{st.m};{K},{M};{row['s']})"
            lvl = TwoElectronLevel(rm=st, cm_k=K, cm_m=M)
            fn, delta = partial(two_electron_record, d, lvl, **opts), partial(oracle_delta, lvl, d)
        cell = _safe(fn, label, d, float(row["energy"]))
        if oracle and cell.error is None:
            cell = replace(cell, oracle_delta=delta(cell.value))
        cells.append(cell)
    return TableReport(table_id=table_id, cells=cells, tolerance=tolerance)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

_FIG_ION_STATES = {
    1: _T1_BLOCK_A + _T1_BLOCK_B,
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
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"bad grid {spec!r}: lo, hi and step must be finite")
    if step <= 0.0 or hi < lo:
        raise ValueError(f"bad grid {spec!r}: need hi >= lo and step > 0")
    return lo, hi, step


def _grid_points(grid: tuple[float, float, float]) -> list[float]:
    lo, hi, step = grid
    n = int(round((hi - lo) / step))
    pts = [lo + i * step for i in range(n + 1)]
    if pts[-1] > hi + 1e-12:
        pts.pop()
    return pts


def _pair_interaction_record(state: StateLabel, d: DotParams, **opts) -> SpectrumRecord:
    """Pair interaction energy of tables 2-3 and figure 5.

    The two-electron record less its exact center-of-mass and free parts.
    """
    rec = two_electron_record(d, TwoElectronLevel(rm=state, cm_k=0, cm_m=0), **opts)
    return replace(
        rec,
        label=radial_name(state.k, state.m),
        energy=rec.energy - cm_energy(d, 0, 0) - rm_free_energy(d, state),
    )


def _pair_oracle_delta(state: StateLabel, d: DotParams, energy: float) -> float:
    """oracle_delta of a pair interaction energy, its exact parts added back."""
    level = TwoElectronLevel(rm=state, cm_k=0, cm_m=0)
    return oracle_delta(level, d, energy + cm_energy(d, 0, 0) + rm_free_energy(d, state))


def figure_curves(
    fig_id: int,
    grid=None,
    jobs: int = 1,
    oracle: bool = False,
    order: int = DEFAULT_ORDER,
    pade: tuple[int, int] = DEFAULT_PADE,
    precision: str = "auto",
):
    """Curves behind one published figure: (records, crossings).

    Figures 1-4 scan the impurity-electron states over gamma at gamma_d = 0.2
    (figure 1 without the impurity interaction); figure 5 scans the pair
    interaction energy over the combined confinement; figures 6 and 7 scan
    the two-electron levels of table 5 without and with the pair interaction.
    With oracle set, every interacting point also carries its
    finite-difference cross-check delta.  order, pade and precision go to
    every solve.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"figure id must be one of {FIGURE_IDS}")
    opts = {"order": order, "pade": pade, "precision": precision}
    if fig_id == 5:
        pts = _grid_points(grid or DEFAULT_GAMMA_EFF_GRID)
        states = [StateLabel(k, m) for k, m in _T23_STATES]
        records = []
        for st in states:
            for g_eff in pts:
                d = DotParams(gamma=0.0, gamma_d=g_eff)
                try:
                    rec = _pair_interaction_record(st, d, **opts)
                    if oracle:
                        rec = replace(rec, oracle_delta=_pair_oracle_delta(st, d, rec.energy))
                    records.append(rec)
                except PsletError as err:
                    records.append(failed_record(radial_name(st.k, st.m), d, err))
        return records, []
    pts = _grid_points(grid or DEFAULT_GAMMA_GRID)
    if fig_id in (1, 2, 3, 4):
        states = [StateLabel(k, m) for k, m in _FIG_ION_STATES[fig_id]]
        interaction = fig_id != 1
        d0 = DotParams(gamma=pts[0], gamma_d=_T1_GAMMA_D)
    else:
        states = [
            TwoElectronLevel(rm=StateLabel(k, m), cm_k=K, cm_m=M) for _, k, m, K, M in _T5_LEVELS
        ]
        interaction = fig_id == 7
        d0 = DotParams(gamma=pts[0], gamma_d=_T5_GAMMA_D)
    return scan_levels(states, d0, pts, interaction, jobs=jobs, oracle=oracle, **opts)


def scan_levels(states, d0: DotParams, pts, interaction: bool, jobs: int = 1,
                oracle: bool = False, **opts):
    """scan_spectrum over spectrum records: (records, crossings).

    opts (order, pade, precision) go to every solve.  The oracle delta is
    only defined with the interaction on, so without it oracle is ignored.
    """
    evaluator = partial(spectrum_record, interaction=interaction, **opts)
    return scan_spectrum(
        states, d0, pts, evaluator=evaluator, jobs=jobs, oracle=oracle and interaction
    )


def table4_levels() -> list[tuple[str, TwoElectronLevel]]:
    """The sixteen tagged levels of table 4 as (tag, level) pairs."""
    return [
        (tag, TwoElectronLevel(rm=StateLabel(k, m), cm_k=K, cm_m=M))
        for tag, k, m, K, M in _T4_LEVELS
    ]


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------

_HEADER = "label,gamma,gamma_d,Gamma,energy,leading_fraction,pade_spread"


def _fmt(x: float) -> str:
    return f"{x:.6f}" if math.isfinite(x) else "nan"


def records_csv(records, oracle: bool = False, sep: str = ",") -> str:
    """Deterministic CSV for spectrum records (6-decimal fixed format)."""
    header = _HEADER + (",oracle_delta" if oracle else "")
    lines = [header.replace(",", sep)]
    for r in records:
        fields = [
            r.label,
            _fmt(r.gamma),
            _fmt(r.gamma_d),
            _fmt(r.gamma_eff),
            _fmt(r.energy),
            _fmt(r.leading_fraction),
            f"{r.pade_spread:.3e}" if math.isfinite(r.pade_spread) else "inf",
        ]
        if oracle:
            fields.append(_fmt(r.oracle_delta) if r.oracle_delta is not None else "")
        lines.append(sep.join(fields))
    return "\n".join(lines) + "\n"


def crossings_csv(crossings, sep: str = ",") -> str:
    lines = [sep.join(("state_a", "state_b", "gamma_lo", "gamma_hi"))]
    for c in crossings:
        lines.append(sep.join((c.state_a, c.state_b, _fmt(c.gamma_lo), _fmt(c.gamma_hi))))
    return "\n".join(lines) + "\n"


def table_csv(report: TableReport, sep: str = ",") -> str:
    """One row per cell: computed value, golden reference and their gap."""
    with_oracle = any(c.oracle_delta is not None for c in report.cells)
    cols = (
        "label,gamma,gamma_d,Gamma,energy,reference,delta,leading_fraction,pade_spread,converged"
    )
    if with_oracle:
        cols += ",oracle_delta"
    lines = [cols.replace(",", sep)]
    for c in report.cells:
        fields = [
            c.label,
            _fmt(c.gamma),
            _fmt(c.gamma_d),
            _fmt(c.gamma_eff),
            _fmt(c.value),
            _fmt(c.reference),
            f"{c.delta:.3e}" if math.isfinite(c.delta) else "nan",
            _fmt(c.leading_fraction),
            f"{c.pade_spread:.3e}" if math.isfinite(c.pade_spread) else "inf",
            "1" if c.converged else "0",
        ]
        if with_oracle:
            fields.append(_fmt(c.oracle_delta) if c.oracle_delta is not None else "")
        lines.append(sep.join(fields))
    return "\n".join(lines) + "\n"


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
