"""The compiled correction table data/series.npz against its decimal generator.

An escalated solve reads its double-double corrections from the table
(engine._table_corrections), which covers k <= K_TAB and omega in
TABLE_OMEGA; a state that escalates outside it raises OutsideSeriesTable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pslet import HybridPotential, StateIndex, cli, engine
from pslet._dd import DD
from pslet.errors import OutsideSeriesTable, SeriesTableMismatch
from pslet.quantum_dot import DotParams, StateLabel, ion_record, spectrum_row

ROOT = Path(__file__).resolve().parents[1]
PIN = json.loads((ROOT / "tests" / "data" / "corrections_pin.json").read_text())
SYSTEMS = {"ion": (8.0, 1.0), "rm": (32.0, 0.5)}

sys.path.insert(0, str(ROOT / "tools"))

import series_table  # noqa: E402

# twelve seeded off-node frequencies, and two next to the ends of the domain
OMEGAS = sorted(np.random.default_rng(25).uniform(2.0, 8.0, 12).tolist()) + [2.0 + 1e-7, 7.999]


def _decimal_series(k: int, omega: float) -> list:
    """F_0..F_19 at (k, omega) from the generator's 45-digit decimal hierarchy."""
    with mpmath.workdps(series_table.DIGITS + 20):
        return series_table.node_series(k, mpmath.mpf(2) / omega)


@pytest.mark.parametrize("k", range(engine.K_TAB + 1))
def test_table_matches_the_decimal_hierarchy(k):
    # the reference is the generator's decimal hierarchy off its nodes, so
    # this checks the interpolant and its dd evaluation together: 2.6e-29 of
    # max|F_n| at k = 0 and below 1e-31 at k = 1-5
    ref = [_decimal_series(k, w) for w in OMEGAS]
    table = [engine._table_corrections(k, DD(w), DD(1.0)) for w in OMEGAS]
    with mpmath.workdps(series_table.DIGITS):
        diff = np.array([[float(abs(mpmath.mpf(c.hi) + mpmath.mpf(c.lo) - f))
                          for c, f in zip(row, ref_row)] for row, ref_row in zip(table, ref)])
    scale = np.max(np.abs(np.array([[float(f) for f in row] for row in ref])), axis=0)
    assert np.all(diff <= 1e-27 * scale), np.max(diff / scale, axis=0)


@pytest.mark.parametrize(
    "row", [r for r in PIN if r["precision"] == "extended"],
    ids=lambda r: f"{r['system']}-k{r['k']}-m{r['m']}-G{r['Gamma']}",
)
def test_pinned_extended_corrections_come_from_the_table(row):
    divisor, coulomb = SYSTEMS[row["system"]]
    pot = HybridPotential(a_osc=row["Gamma"] ** 2 / divisor, c_coul=coulomb)
    s = StateIndex.from_azimuthal(row["k"], row["m"])
    q, omega, *_ = engine._dd_shift(pot, s, engine.locate_q0(pot, s))
    table = engine._table_corrections(s.k, omega, q)
    assert table is not None
    assert [float(c).hex() for c in table] == row["corrections"]


def test_node_count_past_the_table_is_rejected(capsys):
    # ion, Gamma = 0.2, k = K_TAB + 1 escalates, and the table stops at K_TAB
    pot = HybridPotential(a_osc=0.2**2 / 8.0, c_coul=1.0)
    s = StateIndex.from_azimuthal(engine.K_TAB + 1, 0)
    assert not engine._solve_path("double", pot, s, engine.locate_q0(pot, s)).staircase.converged
    with pytest.raises(OutsideSeriesTable, match=f"k = {engine.K_TAB + 1}, omega = "):
        engine.solve_state(pot, s)
    # the record layer turns it into a failed record, as any PsletError
    d, st = DotParams(0.0, 0.2), StateLabel(engine.K_TAB + 1, 0)
    with pytest.raises(OutsideSeriesTable):
        ion_record(d, st)
    rec = spectrum_row(st, d)
    assert np.isnan(rec.energy) and not rec.converged
    assert "outside the compiled series table" in rec.error
    argv = ["solve", "--system", "ion", "--k", str(engine.K_TAB + 1), "--m", "0",
            "--gamma", "0", "--gamma-d", "0.2"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    assert "outside the compiled series table" in capsys.readouterr().err


def test_frequency_past_the_table_is_rejected():
    # ion, Gamma = 1e-4, k = 0, m = 0 has omega = 9.83: its extended path is
    # outside the table, but the state converges in double and never asks
    pot = HybridPotential(a_osc=1e-4**2 / 8.0, c_coul=1.0)
    s = StateIndex.from_azimuthal(0, 0)
    with pytest.raises(OutsideSeriesTable, match=r"omega in \[2, 8\]"):
        engine._solve_path("extended", pot, s, engine.locate_q0(pot, s))
    res = engine.solve_state(pot, s)
    assert res.precision == "double" and res.shift.omega > engine.TABLE_OMEGA[1]
    assert res.energy.hex() == "0x1.1081c31d94d41p-9"


@pytest.mark.parametrize(
    "name, value", [("DEFAULT_ORDER", 18), ("K_TAB", 4), ("TABLE_OMEGA", (2.0, 9.0))]
)
def test_table_built_for_other_constants_is_rejected(monkeypatch, name, value):
    monkeypatch.setattr(engine, name, value)
    with pytest.raises(SeriesTableMismatch):
        engine._series_table.__wrapped__()


def test_rebuilt_slice_is_bit_identical():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "series_table.py"), "--check", "0"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "k = 0: identical to series.npz"
