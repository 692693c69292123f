"""The compiled correction table data/series.npz against exact rational runs.

An escalated solve reads its double-double corrections from the table
(engine._table_corrections), which covers k <= K_TAB and every omega > 2; a
state that escalates with k > K_TAB raises OutsideSeriesTable.  The
bit-for-bit rebuild, tools/series_table.py --check K, takes 9-19 s a k;
it is run here for k = 0 alone.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pslet import HybridPotential, StateIndex, cli, engine
from pslet._dd import DD
from pslet.errors import OutsideSeriesTable, SeriesTableMismatch
from pslet.oracle import RadialProblem, solve_radial_fd
from pslet.quantum_dot import DotParams, StateLabel, ion_record, radial_potential, spectrum_row

ROOT = Path(__file__).resolve().parents[1]
PIN = json.loads((ROOT / "tests" / "data" / "corrections_pin.json").read_text())

sys.path.insert(0, str(ROOT / "tools"))

import series_table  # noqa: E402

# dyadic frequencies, so that DD(omega) is the rational the exact run takes:
# one per k inside the states' range [2.006, 3.81], and far past it at k = 0
OMEGAS = {0: (Fraction(257, 128), 20, 1000, 10**6), 1: (Fraction(9, 4),), 2: (Fraction(5, 2),),
          3: (Fraction(23, 8),), 4: (Fraction(13, 4),), 5: (Fraction(15, 4),)}


@pytest.mark.parametrize("k", range(engine.K_TAB + 1))
def test_table_matches_an_exact_rational_run(k):
    # this checks the table's rounding and its dd evaluation together
    for omega in OMEGAS[k]:
        exact = series_table.exact_series(k, Fraction(omega))
        table = engine._table_corrections(k, DD(float(omega)), DD(1.0))
        diff = np.array([float(abs(Fraction(c.hi) + Fraction(c.lo) - f))
                         for c, f in zip(table, exact)])
        scale = np.abs(np.array([float(f) for f in exact]))
        assert np.all(diff <= 1e-27 * scale), (omega, np.max(diff / scale))


def test_chebyshev_conversion_is_exact():
    # T_3(2z - 1) - z/2 through four points, and through five
    zs = [Fraction(j, 7) for j in range(5)]
    values = [4 * (2 * z - 1) ** 3 - 3 * (2 * z - 1) - z / 2 for z in zs]
    assert series_table._chebyshev(zs[:4], values[:4]) == [Fraction(-1, 4), Fraction(-1, 4), 0, 1]
    assert series_table._chebyshev(zs, values) == [Fraction(-1, 4), Fraction(-1, 4), 0, 1, 0]
    values[4] += Fraction(1, 10**40)
    assert series_table._chebyshev(zs, values)[4] != 0


@pytest.mark.parametrize(
    "row", [r for r in PIN if r["precision"] == "extended"],
    ids=lambda r: f"{r['system']}-k{r['k']}-m{r['m']}-G{r['Gamma']}",
)
def test_pinned_extended_corrections_come_from_the_table(row):
    pot = radial_potential(row["system"], row["Gamma"])
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
    with pytest.raises(OutsideSeriesTable, match=f"k = {engine.K_TAB + 1} is outside"):
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


def test_frequency_past_eight_solves_on_the_extended_path():
    # ion, Gamma = 1e-4, k = 0, m = 0 has omega = 9.83; the state converges in
    # double, and its extended path agrees with the finite-difference oracle
    # on a four times finer grid (error <= 1.6e-8 in the oracle's units of 2 eps)
    pot = HybridPotential(a_osc=1e-4**2 / 8.0, c_coul=1.0)
    s = StateIndex.from_azimuthal(0, 0)
    ext = engine._solve_path("extended", pot, s, engine.locate_q0(pot, s))
    fd = RadialProblem.auto_sized(0, HybridPotential(a_osc=1e-4**2 / 4.0, c_coul=2.0), 0)
    fd4 = solve_radial_fd(dataclasses.replace(fd, n_points=4 * fd.n_points), 0)
    assert ext.shift.omega > 9.8 and abs(2.0 * ext.energy - fd4) <= 1.6e-8
    res = engine.solve_state(pot, s)
    assert res.precision == "double"
    assert res.energy.hex() == "0x1.1081c31d94d41p-9"


@pytest.mark.parametrize("name, value", [("DEFAULT_ORDER", 18), ("K_TAB", 4)])
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
